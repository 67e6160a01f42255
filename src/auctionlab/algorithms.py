"""Non-strategic allocation algorithms and the exact welfare oracle.

All algorithms are deterministic: bids are processed by descending value
with ties broken by ascending agent index, and every other tie rule is
fixed and documented on the function.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .core import (
    EMPTY,
    Declaration,
    Profile,
    SizeError,
    ValidationError,
    bundle_key,
    full_mask,
)

OPEN = "open"
CLOSED = "closed"

ORACLE_MAX_ITEMS = 20
# Subproblems the oracle may memoize, about 200 bytes each; the tests, the
# built-in scenarios and the benchmark memoize at most 350.
ORACLE_MAX_MEMO = 2**21

PriceFn = Callable[[int], Optional[tuple[int, str]]]


@dataclass(frozen=True)
class AllocationRule:
    """A deterministic map from single-minded profiles to feasible allocations.

    When the rule has closed-form bid thresholds, `thresholds(profile,
    agent)` returns a `price_of(set_mask)` that gives (theta, OPEN|CLOSED),
    or None for an unwinnable set, without recomputing the state shared by
    all sets; the entry profile[agent] is ignored.  All three built-in
    rules fill it.  A rule without it is priced by the generic search,
    which is also the reference the closed forms are tested against.
    """

    name: str
    allocate: Callable[[Profile], tuple[int, ...]]
    thresholds: Callable[[Profile, int], PriceFn] | None = None


def ceil_sqrt(item_count: int) -> int:
    r = math.isqrt(item_count)
    return r if r * r == item_count else r + 1


def small_cap(item_count: int) -> int:
    """Size cap of the two-scale rules' small sets: never the grand bundle."""
    return min(ceil_sqrt(item_count), item_count - 1)


def greedy_allocate(profile: Sequence[Declaration], cap: int | None = None) -> tuple[int, ...]:
    """Accept bids in descending value order (ties: lower agent index first)
    whenever the set is disjoint from everything accepted so far.

    Bids for sets larger than `cap` never participate.
    """
    if cap is None:
        order = [(-bid, i, s) for i, (s, bid) in enumerate(profile) if bid > 0]
    else:
        order = [
            (-bid, i, s) for i, (s, bid) in enumerate(profile) if bid > 0 and s.bit_count() <= cap
        ]
    order.sort()
    used = 0
    alloc = [0] * len(profile)
    for _, i, s in order:
        if not s & used:
            alloc[i] = s
            used |= s
    return tuple(alloc)


def opposing_total(profile: Sequence[Declaration], agent: int, set_mask: int) -> int:
    """Sum of the other agents' bids on sets that meet `set_mask`: every such
    bid, less the agent's own when its set meets `set_mask`."""
    own_set, own_bid = profile[agent] if 0 <= agent < len(profile) else EMPTY
    total = -own_bid if own_set & set_mask else 0
    for s, bid in profile:
        if s & set_mask:
            total += bid
    return total


def filtered_pass(profile: Sequence[Declaration], cap: int) -> tuple[list[int], list[int]]:
    """`(allocation, charges)` of filtered greedy: each agent wins its set iff
    it is non-empty, fits `cap`, and the bid strictly exceeds the opposing
    total.  That equals greedy, then that filter: such a bid beats every
    intersecting bid, so greedy accepts it first.  A winner is charged its
    opposing total, which is its critical price there, and a loser 0."""
    alloc, charges = [0] * len(profile), [0] * len(profile)
    for i, (s, bid) in enumerate(profile):
        if s and s.bit_count() <= cap:
            total = -bid  # the agent's own set meets itself
            for t, b in profile:
                if t & s:
                    total += b
            if bid > total:
                alloc[i], charges[i] = s, total
    return alloc, charges


# One side of a two-sided rule, (within, low, high): the subsets of the item
# mask `within` whose size lies in [low, high].  `within = -1` tests size alone.
Side = tuple[int, int, int]


def greedy_accepted(
    profile: Sequence[Declaration], side: Side, skip: int = -1
) -> list[tuple[int, int, int]]:
    """Accepted bids of greedy over the bids on sets in `side`, agent `skip`
    left out, in processing order, as (bid, agent, set_mask) triples."""
    within, low, high = side
    outside = ~within
    order = [
        (-bid, i, s)
        for i, (s, bid) in enumerate(profile)
        if bid > 0 and not s & outside and low <= s.bit_count() <= high and i != skip
    ]
    order.sort()
    used = 0
    accepted = []
    for neg_bid, i, s in order:
        if not s & used:
            accepted.append((-neg_bid, i, s))
            used |= s
    return accepted


def _welfare(accepted: list[tuple[int, int, int]]) -> int:
    return sum([bid for bid, _, _ in accepted])


def greedy_acceptances(
    profile: Sequence[Declaration], skip: int, cap: int | None = None
) -> list[tuple[int, int, int]]:
    """Accepted bids of the greedy run without agent `skip`, in processing
    order, as (bid, agent, set_mask) triples."""
    return greedy_accepted(profile, (-1, 1, sys.maxsize if cap is None else cap), skip)


def _greedy_price(acceptances: list[tuple[int, int, int]], agent: int, cap: int | None) -> PriceFn:
    """Prices against the `acceptances` of a greedy run without `agent`: the
    first accepted bid whose set intersects, with the boundary decided by
    who would win the tie at that value."""

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


def with_probe(profile: Profile, agent: int, probe: Declaration) -> Profile:
    return (*profile[:agent], probe, *profile[agent + 1 :])


def takeover(
    price: tuple[int, str], rival: int, companions: int, wins_ties: bool
) -> tuple[int, str]:
    """The price of a set on one side of a rule that hands everything to the
    side of higher declared welfare, given its `price` within the side.

    Once the agent wins, its side's welfare is its bid plus `companions`,
    the others the side then keeps, which do not move with the bid.  So the
    side overtakes the `rival`, the other side's welfare without the agent,
    at theta = rival - companions.  A side that wins ties pays theta, CLOSED,
    when theta exceeds its side price; one that loses them pays theta, OPEN,
    when theta reaches it.  A rival of 0 never binds."""
    theta = rival - companions
    if wins_ties:
        return (theta, CLOSED) if theta > price[0] else price
    return (theta, OPEN) if theta >= price[0] else price


def greedy_rule(cap: int | None = None) -> AllocationRule:
    return AllocationRule(
        name=f"greedy(cap={cap})",
        allocate=lambda profile: greedy_allocate(profile, cap),
        # priced against the greedy run without the agent
        thresholds=lambda p, i: _greedy_price(greedy_acceptances(p, i, cap), i, cap),
    )


def _holds(side: Side, set_mask: int) -> bool:
    within, low, high = side
    return not set_mask & ~within and low <= set_mask.bit_count() <= high


def two_sided_thresholds(profile: Profile, agent: int, side_a: Side, side_b: Side) -> PriceFn:
    """The bid thresholds for `agent` of `two_sided_allocate`.  A set must
    win its side's greedy run and lift that side's welfare over the other's,
    so each side prices a set by `takeover` of its greedy floor, with side A
    winning ties.  A set in neither side never wins."""
    sides = (side_a, side_b)
    accepted = [greedy_accepted(profile, side, agent) for side in sides]
    floors = [_greedy_price(run, agent, None) for run in accepted]

    def price_of(set_mask: int) -> tuple[int, str] | None:
        for k, side in enumerate(sides):
            if _holds(side, set_mask):
                floor, rival = floors[k](set_mask), _welfare(accepted[1 - k])
                if not rival:  # nothing to overtake: spare the probe run
                    return floor
                bid = floor[0] + 1  # the agent wins its side's run from here on
                winning = with_probe(profile, agent, Declaration(set_mask, bid))
                companions = _welfare(greedy_accepted(winning, side)) - bid
                return takeover(floor, rival, companions, wins_ties=k == 0)
        return None

    return price_of


def two_sided_allocate(profile: Profile, side_a: Side, side_b: Side) -> tuple[int, ...]:
    """Greedy within side A versus greedy within side B, two disjoint sides:
    the side of higher declared welfare takes everything, side A wins ties."""
    accepted_a = greedy_accepted(profile, side_a)
    accepted_b = greedy_accepted(profile, side_b)
    alloc = [0] * len(profile)
    for _, i, s in accepted_a if _welfare(accepted_a) >= _welfare(accepted_b) else accepted_b:
        alloc[i] = s
    return tuple(alloc)


def grand_bids(profile: Sequence[Declaration], grand: int, skip: int = -1) -> tuple[int, int, int]:
    """(top bid, its agent, total) of the bids on exactly `grand`, agent
    `skip` left out; the lower index wins a tie, and (0, -1, 0) means none."""
    top_bid, top_agent, total = 0, -1, 0
    for i, (s, bid) in enumerate(profile):
        if s == grand and i != skip:
            total += bid
            if bid > top_bid:
                top_bid, top_agent = bid, i
    return top_bid, top_agent, total


def two_tier_rule(item_count: int) -> AllocationRule:
    """Greedy over sets of at most `small_cap(m)` items versus the top bid on
    the grand bundle, as a two-sided rule; mid-size sets never win."""
    if item_count < 2:
        raise ValidationError("two-tier rule needs at least 2 items")
    cap, grand = small_cap(item_count), full_mask(item_count)
    small, whole = (-1, 1, cap), (grand, item_count, item_count)
    return AllocationRule(
        name=f"two-tier(m={item_count})",
        allocate=lambda profile: two_sided_allocate(profile, small, whole),
        thresholds=lambda p, i: two_sided_thresholds(p, i, small, whole),
    )


def partition_rule(item_count: int, side_a: int, cap: int | None = None) -> AllocationRule:
    """Greedy restricted to bids inside `side_a` versus greedy restricted to
    the other items; the side with higher declared welfare wins, ties favor
    side A."""
    side_b = full_mask(item_count) & ~side_a
    high = (side_a | side_b).bit_count() if cap is None else cap
    a, b = (side_a, 1, high), (side_b, 1, high)
    return AllocationRule(
        name=f"partition(m={item_count}, a={side_a:#x}, cap={cap})",
        allocate=lambda profile: two_sided_allocate(profile, a, b),
        thresholds=lambda p, i: two_sided_thresholds(p, i, a, b),
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
    items still free that this agent or a later one can take); ties prefer
    staying out, then smaller bundles.
    Raises SizeError beyond ORACLE_MAX_ITEMS items, or once the memo passes
    ORACLE_MAX_MEMO subproblems.
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
    reach = [0] * (n_agents + 1)  # reach[i]: the items agents i.. can take
    for i in reversed(range(n_agents)):
        for mask, _ in options[i]:
            reach[i] |= mask
        reach[i] |= reach[i + 1]

    free0, budget = span, ORACLE_MAX_MEMO
    memo: dict[tuple[int, int], tuple[int, int]] = {}

    def solve(i: int, free: int) -> tuple[int, int]:
        if i == n_agents:
            return (0, 0)
        free &= reach[i]  # the free items nobody from i on can take change nothing
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
        if len(memo) > budget:
            raise SizeError(f"oracle gives up past {budget} subproblems")
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
