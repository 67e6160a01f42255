"""Strategic layer: bid simplification, critical prices with exact
open/closed boundary semantics, and the three mechanisms.

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

import functools
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .algorithms import (
    CLOSED,
    OPEN,
    AllocationRule,
    PriceFn,
    ceil_sqrt,
    greedy_allocate,
)
from .core import (
    EMPTY,
    AuctionError,
    Bid,
    Declaration,
    Outcome,
    Profile,
    ValidationError,
    Valuation,
    full_mask,
    single_minded,
)


class NonMonotoneDecisionError(AuctionError):
    """The win predicate handed to the threshold search is not monotone."""


def simplify_one(bid: Bid) -> Declaration:
    """Collapse a declaration to single-minded form: the argmax-value bundle,
    smaller bundles preferred on ties; zero-value maxima become EMPTY.
    Already single-minded declarations pass through unchanged."""
    if isinstance(bid, Declaration):
        return bid
    mask, value = bid.best_bundle()
    return single_minded(mask, value)


def simplify(profile: Sequence[Bid]) -> Profile:
    return tuple(simplify_one(b) for b in profile)


class Coin(NamedTuple):
    """Per-round random draws of a mechanism, fully determined by the seeded
    generator that produced it.  `lottery_agent` is set when the grand-bundle
    lottery fires; `ignore_grand` is the trembling draw."""

    ignore_grand: bool = False
    lottery_agent: int | None = None


COIN_NONE = Coin()
COIN_IGNORE_GRAND = Coin(ignore_grand=True)


@functools.cache
def _lottery_coin(agent: int) -> Coin:
    """The coin on which the grand-bundle lottery goes to `agent`, built
    once per agent index."""
    return Coin(lottery_agent=agent)


def with_probe(profile: Profile, agent: int, probe: Declaration) -> Profile:
    return (*profile[:agent], probe, *profile[agent + 1 :])


def tie_loss_probe(profile: Profile, agent: int, set_mask: int, bid: int) -> Profile:
    """Profile in which the probing agent's bid sits strictly between its own
    tick and the one below on a doubled scale, so it loses every exact tie."""
    doubled = tuple(Declaration(s, 2 * bid) if bid else EMPTY for s, bid in profile)
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


def declared_separated_for(agent: int, decl: Declaration, profile: Profile) -> bool:
    """Separation as a mechanism can observe it: the sum of strictly
    lower intersecting declared bids does not exceed the agent's own bid.
    Empty declarations are vacuously separated."""
    set_mask, bid = decl
    pressure = sum(
        b for j, (s, b) in enumerate(profile) if j != agent and s & set_mask and b < bid
    )
    return not set_mask or pressure <= bid


def separated_flags(profile: Sequence[Declaration], types: Sequence[Valuation]) -> tuple[bool, ...]:
    """Per-agent separation of a single-minded profile against true types:
    the intersecting bids strictly below the agent's true value for his set
    must sum to at most his declared bid."""
    flags = []
    for i, (set_mask, bid) in enumerate(profile):
        # an empty declaration (0, 0) meets no set: pressure 0 <= bid 0
        true_value = types[i].value_of(set_mask)
        pressure = sum(
            b for j, (s, b) in enumerate(profile) if j != i and s & set_mask and b < true_value
        )
        flags.append(pressure <= bid)
    return tuple(flags)


def _no_price(set_mask: int) -> None:
    return None


class Mechanism:
    """Base for the direct mechanisms: simplify, allocate, charge critical
    prices.  Subclasses implement `_allocate` (pure, coin-conditioned) and
    may override `thresholds` with closed forms; the generic threshold
    search is the default and the reference the closed forms are tested
    against."""

    name: str = "mechanism"
    item_count: int | None = None
    lottery: Fraction | None = None  # grand-bundle lottery probability, if enabled
    # the lottery's chance as the float the coin stream compares against, or
    # None when it never fires (then no draw is made)
    _lottery_chance: float | None = None
    # (probability, coin) of each resolution of the mechanism's own coin
    branches: tuple[tuple[Fraction, Coin], ...] = ((Fraction(1), COIN_NONE),)

    # -- allocation ---------------------------------------------------------

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        raise NotImplementedError

    def allocate(self, profile: Sequence[Bid], coin: Coin = COIN_NONE) -> tuple[int, ...]:
        d = simplify(profile)
        if coin.lottery_agent is not None:
            return self._lottery_allocation(d, coin.lottery_agent)
        return self._allocate(d, coin)

    def _lottery_allocation(self, profile: Profile, agent: int) -> tuple[int, ...]:
        if self.item_count is None:
            raise ValidationError(f"{self.name} does not support the lottery")
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
        if coin.lottery_agent is not None:
            alloc = self._lottery_allocation(probe, coin.lottery_agent)
        else:
            alloc = self._allocate(probe, coin)
        return alloc[agent] == set_mask

    def _search_upper(self, agent: int, profile: Profile) -> int:
        return sum(bid for j, (_, bid) in enumerate(profile) if j != agent) + 1

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
        against `profile` under `coin`.  State shared by all sets is built
        once per call.  Default: the generic search, one set at a time."""
        return lambda set_mask: Mechanism.critical_price(self, agent, set_mask, profile, coin)

    # -- outcomes and utilities ----------------------------------------------

    def outcome(self, profile: Sequence[Bid], coin: Coin = COIN_NONE) -> Outcome:
        d = simplify(profile)
        if coin.lottery_agent is not None:
            alloc = self._lottery_allocation(d, coin.lottery_agent)
            return Outcome(alloc, (0,) * len(alloc))
        alloc = self._allocate(d, coin)
        payments = [0] * len(alloc)
        for i, mask in enumerate(alloc):
            if mask:
                price = self.critical_price(i, mask, d, coin)
                assert price is not None, "winner must have a finite threshold"
                payments[i] = price[0]
        return Outcome(alloc, tuple(payments))

    def counterfactual_utilities(
        self,
        agent: int,
        decls: Sequence[Declaration],
        profile: Profile,
        valuation: Valuation,
    ) -> list:
        """Exact expected utility of each candidate declaration against the
        same opponents, over the mechanism's own randomization; this is the
        full-information feedback fed to learners.  Plain ints when the
        mechanism is deterministic."""
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
        if self.lottery is None and len(per_branch) == 1:
            return per_branch[0]
        totals = [Fraction(0)] * len(decls)
        if self.lottery:
            share = self.lottery / len(profile) * valuation.value_of(full_mask(self.item_count))
            for k, d in enumerate(decls):
                if declared_separated_for(agent, d, profile):
                    totals[k] += share
        keep = 1 - (self.lottery or 0)
        for (prob, _), utilities in zip(self.branches, per_branch):
            weight = keep * prob
            for k, u in enumerate(utilities):
                if u:
                    totals[k] += weight * u
        return totals

    def expected_utility(
        self, agent: int, decl: Declaration, profile: Profile, valuation: Valuation
    ):
        """Exact expected utility of one declaration over the mechanism's
        own randomization.  Returns a plain int when the mechanism is
        deterministic."""
        return self.counterfactual_utilities(agent, (decl,), profile, valuation)[0]

    # -- randomization -------------------------------------------------------

    def _set_lottery(self, lottery: Fraction | None) -> None:
        if lottery is not None and not 0 <= lottery <= 1:
            raise ValidationError("appendix_b_lottery must lie in [0, 1]")
        self.lottery = lottery
        self._lottery_chance = float(lottery) if lottery else None

    def draw_coin(self, rng, n_agents: int) -> Coin:
        if self._lottery_chance is not None and rng.random() < self._lottery_chance:
            return _lottery_coin(rng.randrange(n_agents))
        return self._draw_mechanism_coin(rng)

    def _draw_mechanism_coin(self, rng) -> Coin:
        return COIN_NONE


class RuleMechanism(Mechanism):
    """Simplify, run a monotone allocation rule, charge its critical prices."""

    def __init__(self, rule: AllocationRule, item_count: int | None = None):
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

    Equivalent characterization, property-tested against the pipeline: an
    agent wins his set iff it fits the cap and his bid strictly exceeds the
    total of all other intersecting declared bids.
    """

    def __init__(self, item_count: int, cap: int, lottery: Fraction | None = None):
        if cap < 1:
            raise ValidationError("cardinality cap must be at least 1")
        self._set_lottery(lottery)
        self.item_count = item_count
        self.cap = cap
        self.name = f"filtered-greedy(m={item_count}, cap={cap})"

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        provisional = greedy_allocate(profile, self.cap)
        alloc = list(provisional)
        for i, won in enumerate(provisional):
            if not won:
                continue
            pressure = sum(bid for j, (s, bid) in enumerate(profile) if j != i and s & won)
            if profile[i].bid <= pressure:
                alloc[i] = 0
        return tuple(alloc)

    def critical_price(self, agent, set_mask, profile, coin=COIN_NONE):
        return self.thresholds(profile, agent, coin)(set_mask)

    def thresholds(self, profile, agent, coin=COIN_NONE):
        if coin.lottery_agent is not None:
            return _no_price
        cap = self.cap

        def price_of(set_mask):
            if set_mask == 0 or set_mask.bit_count() > cap:
                return None
            pressure = sum(
                bid for j, (s, bid) in enumerate(profile) if j != agent and s & set_mask
            )
            return (pressure, OPEN)

        return price_of


class GrandBundleMechanism(Mechanism):
    """Filtered greedy over small sets combined with a grand-bundle branch:
    the top grand bid takes everything when it strictly exceeds both the
    other grand bids and the small-side declared welfare.  With probability
    gamma the round ignores grand bids entirely, which keeps small-set
    bidding attractive."""

    def __init__(self, item_count: int, gamma: Fraction, lottery: Fraction | None = None):
        if item_count < 2:
            raise ValidationError("grand-bundle mechanism needs at least 2 items")
        gamma = Fraction(gamma)
        if not 0 <= gamma < 1:
            raise ValidationError("gamma must lie in [0, 1)")
        self._set_lottery(lottery)
        self.item_count = item_count
        self.gamma = gamma
        self.small_cap = ceil_sqrt(item_count)
        self.grand = full_mask(item_count)
        self._inner = FilteredGreedyMechanism(item_count, self.small_cap)
        self.name = f"grand-bundle(m={item_count}, gamma={gamma})"
        # the trembling draw's chance as the float the coin stream compares
        # against, or None when it never fires (then no draw is made)
        self._ignore_chance = float(gamma) if gamma else None
        if gamma:
            self.branches = ((gamma, COIN_IGNORE_GRAND), (1 - gamma, COIN_NONE))

    def _small_profile(self, profile: Profile) -> Profile:
        cap = self.small_cap
        return tuple(d if d.set_mask.bit_count() <= cap else EMPTY for d in profile)

    def _grand_bids(self, profile: Profile, skip: int = -1) -> list[tuple[int, int]]:
        grand = self.grand
        return [
            (bid, i)
            for i, (s, bid) in enumerate(profile)
            if i != skip and s == grand and bid > 0
        ]

    def _small_welfare(self, profile: Profile) -> int:
        """Declared welfare of the filtered greedy run over small sets."""
        alloc = self._inner._allocate(profile, COIN_NONE)
        return sum(profile[i].bid for i, mask in enumerate(alloc) if mask)

    def _allocate(self, profile: Profile, coin: Coin) -> tuple[int, ...]:
        live = profile
        if coin.ignore_grand:
            live = tuple(EMPTY if d.set_mask == self.grand else d for d in profile)
        alloc = list(self._inner._allocate(self._small_profile(live), COIN_NONE))
        bigs = self._grand_bids(live)
        if bigs:
            top_bid, top_agent = max(bigs, key=lambda b: (b[0], -b[1]))
            rest = sum(b for b, _ in bigs) - top_bid
            small_welfare = sum(
                live[i].bid for i, mask in enumerate(alloc) if mask
            )
            if top_bid > rest and top_bid > small_welfare:
                alloc = [0] * len(profile)
                alloc[top_agent] = self.grand
        return tuple(alloc)

    def critical_price(self, agent, set_mask, profile, coin=COIN_NONE):
        return self.thresholds(profile, agent, coin)(set_mask)

    def thresholds(self, profile, agent, coin=COIN_NONE):
        if coin.lottery_agent is not None:
            return _no_price
        small = self._small_profile(profile)
        bigs = [] if coin.ignore_grand else [b for b, _ in self._grand_bids(profile, skip=agent)]
        others_grand = sum(bigs)
        top_bid = max(bigs, default=0)
        # The grand branch can only fire when the top opposing grand bid
        # strictly exceeds the rest of them.
        grand_fires = top_bid > others_grand - top_bid

        def price_of(set_mask):
            if set_mask == self.grand:
                if coin.ignore_grand:
                    return None
                welfare = self._small_welfare(with_probe(small, agent, EMPTY))
                return (max(others_grand, welfare), OPEN)
            if set_mask == 0 or set_mask.bit_count() > self.small_cap:
                return None
            floor = sum(
                bid for j, (s, bid) in enumerate(small) if j != agent and s & set_mask
            )
            if not grand_fires:
                return (floor, OPEN)
            # Small welfare grows one-for-one with the probing bid once it
            # wins, so the grand branch stops firing at a fixed offset.
            winning = with_probe(small, agent, Declaration(set_mask, floor + 1))
            companions = self._small_welfare(winning) - (floor + 1)
            takeover = top_bid - companions
            if takeover > floor:
                return (takeover, CLOSED)
            return (floor, OPEN)

        return price_of

    def _draw_mechanism_coin(self, rng) -> Coin:
        if self._ignore_chance is not None and rng.random() < self._ignore_chance:
            return COIN_IGNORE_GRAND
        return COIN_NONE
