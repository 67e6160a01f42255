"""Strategic layer: critical prices with exact open/closed boundary semantics,
and the three mechanisms, which take one single-minded declaration per agent.

Critical prices live on the integer tick grid.  For a win predicate that is
monotone in the bid, the minimal winning tick k is found first under the
natural tie order; if the agent would still win at k when every exact tie
is resolved against him, the true threshold is the previous tick and the
boundary is OPEN (bidding exactly theta loses), otherwise it is CLOSED
(bidding exactly theta wins).  Winners are always charged theta.

The tie-loss probe never special-cases mechanism internals: it doubles all
opposing bids and bids 2v-1, so every comparison that would tie at v
resolves against the probing agent.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .algorithms import (
    CLOSED,
    OPEN,
    AllocationRule,
    PriceFn,
    filtered_pass,
    grand_bids,
    greedy_allocate,  # not called here: perfbench/tracer.py patches this name in this module
    opposing_total,
    small_cap,
    takeover,
    with_probe,
)
from .core import (
    EMPTY,
    AuctionError,
    Declaration,
    Outcome,
    Profile,
    ValidationError,
    Valuation,
    declared_welfare,
    full_mask,
    randbelow,
)


class NonMonotoneDecisionError(AuctionError):
    """The win predicate handed to the threshold search is not monotone."""


def check_chance(value: Fraction, where: str, below_one: bool = False) -> Fraction:
    """`value` when it is a probability, in [0, 1) if `below_one`; otherwise
    a ValidationError whose argument is `where`."""
    top = "1)" if below_one else "1]"
    if not 0 <= value <= 1 or (below_one and value == 1):
        raise ValidationError(f"must lie in [0, {top}", arg=where)
    return value


class Coin(NamedTuple):
    """Per-round random draws of a mechanism, fully determined by the seeded
    generator that produced it.  `lottery_agent` is set when the grand-bundle
    lottery fires; `ignore_grand` is the trembling draw."""

    ignore_grand: bool = False
    lottery_agent: int | None = None


COIN_NONE = Coin()
COIN_IGNORE_GRAND = Coin(ignore_grand=True)


def tie_loss_probe(profile: Profile, agent: int, set_mask: int, bid: int) -> Profile:
    """Profile in which the probing agent's bid sits strictly between its own
    tick and the one below on a doubled scale, so it loses every exact tie."""
    doubled = tuple([Declaration(s, 2 * b) if b else EMPTY for s, b in profile])
    return with_probe(doubled, agent, Declaration(set_mask, 2 * bid - 1))


def search_critical_price(
    decide: Callable[[int, bool], bool], upper: int
) -> tuple[int, str] | None:
    """Find (theta, boundary) for a win predicate `decide(bid, lose_ties)`
    monotone in bid; None when no bid up to `upper` wins.

    Raises NonMonotoneDecisionError when the probes contradict monotonicity
    (in particular, when the tie-losing probe wins below the natural minimal
    winning tick).
    """
    if upper < 1 or not decide(upper, False):
        return None
    lo, hi = 0, upper  # invariant: lo loses, hi wins (bid 0 is EMPTY: loses)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if decide(mid, False):
            hi = mid
        else:
            lo = mid
    k = hi
    if decide(k, True):
        if k > 1 and decide(k - 1, True):
            raise NonMonotoneDecisionError(
                f"tie-losing probe wins at {k - 1}, below the minimal winning tick {k}"
            )
        return (k - 1, OPEN)
    return (k, CLOSED)


def wins_threshold(bid: int, price: tuple[int, str] | None) -> bool:
    """Whether a bid wins against a (theta, boundary) threshold."""
    if price is None:
        return False
    theta, boundary = price
    return bid > theta if boundary == OPEN else bid >= theta


def pressure(profile: Sequence[Declaration], agent: int, set_mask: int, ceiling: int) -> int:
    """Sum of the other agents' bids below `ceiling` on sets that meet `set_mask`."""
    total = 0
    for j, (s, b) in enumerate(profile):
        if s & set_mask and b < ceiling and j != agent:
            total += b
    return total


def declared_separated_for(agent: int, decl: Declaration, profile: Profile) -> bool:
    """Separation as a mechanism can observe it: the sum of strictly
    lower intersecting declared bids does not exceed the agent's own bid.
    Empty declarations are vacuously separated."""
    set_mask, bid = decl
    return not set_mask or pressure(profile, agent, set_mask, bid) <= bid


def separated_flags(profile: Sequence[Declaration], types: Sequence[Valuation]) -> tuple[bool, ...]:
    """Per-agent separation of a single-minded profile against true types:
    the intersecting bids strictly below the agent's true value for his set
    must sum to at most his declared bid.  An empty declaration (0, 0) meets
    no set: pressure 0 <= bid 0."""
    return tuple(
        pressure(profile, i, set_mask, types[i].value_of(set_mask)) <= bid
        for i, (set_mask, bid) in enumerate(profile)
    )


class Mechanism:
    """Base for the direct mechanisms: allocate a profile of declarations and
    charge critical prices.  `allocate` alone chooses between the lottery and
    `_allocate`, which subclasses implement (pure, coin-conditioned); they may
    override `thresholds` with closed forms, tested against the generic
    threshold search that is the default.  Every built-in mechanism does,
    and `RuleMechanism` takes its rule's closed forms, so the search prices
    only a user-supplied rule without them.  `outcome` charges through
    `_settle`, by default `critical_price`; filtered greedy and the
    grand-bundle mechanism charge from their allocation pass, tested
    against the generic search.  `draw_coins` draws the coins of a run's
    rounds, one of `branches` or a lottery coin each."""

    name: str = "mechanism"
    item_count: int
    lottery: Fraction | None = None  # grand-bundle lottery probability, if enabled
    # (probability, coin) of each resolution of the mechanism's own coin
    branches: tuple[tuple[Fraction, Coin], ...] = ((Fraction(1), COIN_NONE),)

    # -- allocation ---------------------------------------------------------

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        raise NotImplementedError

    def allocate(self, profile: Profile, coin: Coin = COIN_NONE) -> tuple[int, ...]:
        if coin.lottery_agent is not None:
            return self._lottery_allocation(profile, coin.lottery_agent)
        return self._allocate(profile, coin)

    def _lottery_allocation(self, profile: Profile, agent: int) -> tuple[int, ...]:
        alloc = [0] * len(profile)
        if declared_separated_for(agent, profile[agent], profile):
            alloc[agent] = full_mask(self.item_count)
        return tuple(alloc)

    # -- thresholds ---------------------------------------------------------

    def wins(
        self,
        agent: int,
        set_mask: int,
        bid: int,
        profile: Profile,
        coin: Coin = COIN_NONE,
        lose_ties: bool = False,
    ) -> bool:
        """Whether `agent` would be allocated exactly `set_mask` when bidding
        `bid` on it, others as in `profile` (the agent's own entry is
        ignored)."""
        if set_mask == 0 or bid < 1:
            return False
        if lose_ties:
            probe = tie_loss_probe(profile, agent, set_mask, bid)
        else:
            probe = with_probe(profile, agent, Declaration(set_mask, bid))
        return self.allocate(probe, coin)[agent] == set_mask

    def _search_upper(self, agent: int, profile: Profile) -> int:
        total = 1
        for j, (_, bid) in enumerate(profile):
            if j != agent:
                total += bid
        return total

    def critical_price(
        self, agent: int, set_mask: int, profile: Profile, coin: Coin = COIN_NONE
    ) -> tuple[int, str] | None:
        """Infimum winning bid for `set_mask` and its boundary, or None when
        no bid wins.  Generic implementation: binary search over the win
        predicate.  Subclasses answer from `thresholds` instead."""
        if set_mask == 0:
            return None
        return search_critical_price(
            lambda bid, lose: self.wins(agent, set_mask, bid, profile, coin, lose),
            self._search_upper(agent, profile),
        )

    def thresholds(self, profile: Profile, agent: int, coin: Coin = COIN_NONE) -> PriceFn:
        """`price_of(set_mask)`: the critical price of each set for `agent`
        against `profile` under `coin`, one of `branches`: a lottery round
        is free, so it has no price.  State shared by all sets is built
        once per call.  Default: the generic search, one set at a time."""
        return lambda set_mask: Mechanism.critical_price(self, agent, set_mask, profile, coin)

    # -- outcomes and utilities ----------------------------------------------

    def outcome(self, profile: Profile, coin: Coin = COIN_NONE) -> Outcome:
        if coin.lottery_agent is not None:  # the lottery is free
            alloc = self._lottery_allocation(profile, coin.lottery_agent)
            return Outcome(alloc, [0] * len(alloc))
        return Outcome(*self._settle(profile, coin))

    def _settle(self, profile: Profile, coin: Coin) -> tuple[Sequence[int], Sequence[int]]:
        """`(allocation, payments)` of a round without the lottery: allocate,
        then charge each winner its critical price."""
        alloc = self._allocate(profile, coin)
        payments = [0] * len(alloc)
        for i, mask in enumerate(alloc):
            if mask:
                price = self.critical_price(i, mask, profile, coin)
                assert price is not None, "winner must have a finite threshold"
                payments[i] = price[0]
        return alloc, payments

    def scaled_utilities(
        self,
        agent: int,
        decls: Sequence[Declaration],
        profile: Profile,
        valuation: Valuation,
    ) -> tuple[int, list[int]]:
        """`(D, numerators)`: the exact expected utility of each candidate
        declaration against the same opponents, over the mechanism's own
        randomization, is `numerators[k] / D`.  D is a common denominator
        of the branch weights and of the lottery share for `len(profile)`
        agents, and 1 when the mechanism is deterministic."""
        per_branch = []
        for _, coin in self.branches:
            price_of = self.thresholds(profile, agent, coin)
            utilities = []
            for set_mask, bid in decls:
                if not set_mask:
                    utilities.append(0)
                    continue
                price = price_of(set_mask)
                if wins_threshold(bid, price):
                    utilities.append(valuation.value_of(set_mask) - price[0])
                else:
                    utilities.append(0)
            per_branch.append(utilities)
        if not self.lottery and len(per_branch) == 1:
            return 1, per_branch[0]
        denominator, weights, lottery = self._scaled_weights
        totals = [0] * len(decls)
        for weight, utilities in zip(weights, per_branch):
            for k, u in enumerate(utilities):
                if u:
                    totals[k] += weight * u
        if lottery:
            # each agent's share is lottery / n of the grand bundle's value
            n = len(profile)
            share = lottery * valuation.value_of(full_mask(self.item_count))
            for k, d in enumerate(decls):
                totals[k] *= n
                if declared_separated_for(agent, d, profile):
                    totals[k] += share
            denominator *= n
        return denominator, totals

    @cached_property
    def _scaled_weights(self) -> tuple[int, tuple[int, ...], int]:
        """`(D, branch numerators, lottery numerator)` over one common
        denominator D of the lottery chance and of each branch's chance
        when the lottery does not fire (`keep * prob`)."""
        lottery = self.lottery or 0
        scale = math.lcm(*(prob.denominator for prob, _ in self.branches))
        keep = lottery.denominator - lottery.numerator
        return (lottery.denominator * scale,
                tuple(keep * prob.numerator * (scale // prob.denominator)
                      for prob, _ in self.branches),
                lottery.numerator * scale)

    def counterfactual_utilities(
        self,
        agent: int,
        decls: Sequence[Declaration],
        profile: Profile,
        valuation: Valuation,
    ) -> list:
        """Exact expected utility of each candidate declaration, as
        `scaled_utilities` gives it; this is the full-information feedback
        fed to learners.  Plain ints when the mechanism is deterministic,
        Fractions otherwise."""
        denominator, totals = self.scaled_utilities(agent, decls, profile, valuation)
        if not self.lottery and len(self.branches) == 1:
            return totals
        return [Fraction(t, denominator) for t in totals]

    def expected_utility(
        self, agent: int, decl: Declaration, profile: Profile, valuation: Valuation
    ):
        """Exact expected utility of one declaration over the mechanism's
        own randomization.  Returns a plain int when the mechanism is
        deterministic."""
        return self.counterfactual_utilities(agent, (decl,), profile, valuation)[0]

    # -- randomization -------------------------------------------------------

    def draw_coins(self, rng, n_agents: int, rounds: int) -> list[Coin]:
        """The coin of each of `rounds` rounds, drawn round by round: the
        lottery draw first (then, if it fires, the lottery agent), then the
        trembling draw.  A chance that is absent or 0 is never drawn, so a
        mechanism without randomness draws nothing."""
        lottery = float(self.lottery) if self.lottery else None
        ignore = {coin: float(p) for p, coin in self.branches}.get(COIN_IGNORE_GRAND)
        if lottery is None and ignore is None:
            return [COIN_NONE] * rounds
        random, coins = rng.random, []
        for _ in range(rounds):
            if lottery is not None and random() < lottery:
                coins.append(Coin(lottery_agent=randbelow(rng, n_agents)))
            elif ignore is not None and random() < ignore:
                coins.append(COIN_IGNORE_GRAND)
            else:
                coins.append(COIN_NONE)
        return coins


class RuleMechanism(Mechanism):
    """Run a monotone allocation rule, charge its critical prices."""

    def __init__(self, rule: AllocationRule, item_count: int):
        self.rule = rule
        self.item_count = item_count
        self.name = f"critical-price[{rule.name}]"

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        return self.rule.allocate(profile)

    def critical_price(self, agent, set_mask, profile, coin=COIN_NONE):
        return self.thresholds(profile, agent, coin)(set_mask)

    def thresholds(self, profile, agent, coin=COIN_NONE):
        if self.rule.thresholds is None:
            return super().thresholds(profile, agent, coin)
        return self.rule.thresholds(profile, agent)


class FilteredGreedyMechanism(Mechanism):
    """Greedy winners must also strictly exceed the sum of every intersecting
    declared bid; winners pay that sum (the threshold is always open).

    Allocates by the equivalent characterization, in `filtered_pass`, the one
    pass that also charges the winners; tests check it against the
    greedy-then-filter pipeline.
    """

    def __init__(self, item_count: int, cap: int, lottery: Fraction | None = None):
        if cap is None or cap < 1:
            raise ValidationError("filtered greedy needs a cardinality cap of at least 1", arg="s")
        if lottery is not None:
            check_chance(lottery, "appendix_b_lottery")
        self.lottery = lottery
        self.item_count = item_count
        self.cap = cap
        self.name = f"filtered-greedy(m={item_count}, cap={cap})"

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        return tuple(self._settle(profile, coin)[0])

    def _settle(self, profile, coin):
        return filtered_pass(profile, self.cap)

    def critical_price(self, agent, set_mask, profile, coin=COIN_NONE):
        return self.thresholds(profile, agent, coin)(set_mask)

    def thresholds(self, profile, agent, coin=COIN_NONE):
        cap = self.cap

        def price_of(set_mask):
            if set_mask == 0 or set_mask.bit_count() > cap:
                return None
            return (opposing_total(profile, agent, set_mask), OPEN)

        return price_of


class GrandBundleMechanism(FilteredGreedyMechanism):
    """Filtered greedy over the small sets, of at most `small_cap(m)` items,
    combined with a grand-bundle branch: the top grand bid takes everything
    when it strictly exceeds both the other grand bids and the small-side
    declared welfare.  Bids on mid-size sets never win.  With probability
    gamma the round ignores grand bids entirely, which keeps small-set
    bidding attractive.  Both sides are priced and charged by `takeover`,
    the small side winning ties."""

    def __init__(self, item_count: int, gamma: Fraction, lottery: Fraction | None = None):
        if item_count < 2:
            raise ValidationError("grand-bundle mechanism needs at least 2 items")
        gamma = check_chance(Fraction(gamma), "gamma", below_one=True)
        super().__init__(item_count, small_cap(item_count), lottery)
        self.gamma = gamma
        self.grand = full_mask(item_count)
        self.name = f"grand-bundle(m={item_count}, gamma={gamma})"
        if gamma:
            self.branches = ((gamma, COIN_IGNORE_GRAND), (1 - gamma, COIN_NONE))

    def _small_profile(self, profile: Profile) -> Profile:
        """`profile` with every bid on a set of more than `cap` items blanked."""
        return tuple([d if d.set_mask.bit_count() <= self.cap else EMPTY for d in profile])

    def _settle(self, profile, coin):
        small = self._small_profile(profile)
        alloc, payments = filtered_pass(small, self.cap)
        top_bid, top_agent, total = (
            (0, -1, 0) if coin.ignore_grand else grand_bids(profile, self.grand)
        )
        if top_bid <= total - top_bid:  # no grand bid can fire
            return alloc, payments
        welfare = declared_welfare(alloc, small)
        if top_bid > welfare:
            alloc, payments = [0] * len(profile), [0] * len(profile)
            payments[top_agent] = takeover((total - top_bid, OPEN), welfare, 0, wins_ties=False)[0]
            alloc[top_agent] = self.grand
            return alloc, payments
        # the small winners are pairwise disjoint: each keeps all the others
        for i, mask in enumerate(alloc):
            if mask:
                companions = welfare - small[i].bid
                payments[i] = takeover((payments[i], OPEN), top_bid, companions, wins_ties=True)[0]
        return alloc, payments

    def thresholds(self, profile, agent, coin=COIN_NONE):
        small = self._small_profile(profile)
        floor_of = super().thresholds(small, agent, coin)
        top_bid, _, others_grand = (
            (0, -1, 0) if coin.ignore_grand else grand_bids(profile, self.grand, agent)
        )
        # The grand branch can only fire when the top opposing grand bid
        # strictly exceeds the rest of them; the small side wins ties.
        rival = top_bid if top_bid > others_grand - top_bid else 0
        winners = None  # (set, bid) of each small winner without the agent

        def companions(set_mask):
            """Bid sum of the others' small winners whose sets miss `set_mask`."""
            nonlocal winners
            if winners is None:
                alloc = filtered_pass(with_probe(small, agent, EMPTY), self.cap)[0]
                winners = [(s, small[j].bid) for j, s in enumerate(alloc) if s]
            return sum([b for s, b in winners if not s & set_mask])

        def price_of(set_mask):
            if set_mask == self.grand:
                if coin.ignore_grand:
                    return None
                # the rival is the whole small side, as every set misses 0,
                # and a grand winner keeps no companions
                return takeover((others_grand, OPEN), companions(0), 0, wins_ties=False)
            floor = floor_of(set_mask)
            if floor is None or not rival:
                return floor
            return takeover(floor, rival, companions(set_mask), wins_ties=True)

        return price_of
