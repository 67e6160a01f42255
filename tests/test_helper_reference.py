"""The per-call allocation and price helpers against their first, generator
forms: equal results, of the same types and in the same order, on seeded
random single-minded profiles.

Each `ref_*` function below is the helper's earlier body copied verbatim;
only its name carries the `ref_` prefix (and `self` became a parameter
where the helper is a method).  A reference body calls the `ref_` form of
each earlier helper it called that has since changed.
"""
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from auctionlab.algorithms import (
    CLOSED,
    OPEN,
    _greedy_price,
    _holds,
    filtered_pass,
    grand_bids,
    greedy_acceptances,
    greedy_allocate,
    opposing_total,
    partition_rule,
    small_cap,
    takeover_price,
    two_sided_thresholds,
    two_tier_rule,
)
from auctionlab.core import (
    EMPTY,
    Declaration,
    ValidationError,
    Valuation,
    declared_welfare,
    full_mask,
)
from auctionlab.mechanisms import (
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    Mechanism,
    declared_separated_for,
    pressure,
    wins_threshold,
)

CAPS = (None, 1, 2, 3)
PROFILES = 2400


# -- the earlier forms, verbatim ------------------------------------------


def ref_greedy_allocate(profile, cap=None):
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


def ref_opposing_total(profile, agent, set_mask):
    return sum(bid for j, (s, bid) in enumerate(profile) if j != agent and s & set_mask)


def ref_filtered_allocate(profile, cap):
    return tuple(
        s if s and s.bit_count() <= cap and bid > ref_opposing_total(profile, i, s) else 0
        for i, (s, bid) in enumerate(profile)
    )


def ref_greedy_acceptances(profile, skip, cap=None):
    alloc = ref_greedy_allocate([EMPTY if i == skip else d for i, d in enumerate(profile)], cap)
    return sorted(
        ((profile[i][1], i, s) for i, s in enumerate(alloc) if s), key=lambda a: (-a[0], a[1])
    )


def ref_declared_welfare(allocation, profile):
    return sum(bid for mask, (s, bid) in zip(allocation, profile) if s and s & ~mask == 0)


def ref_pressure(profile, agent, set_mask, ceiling):
    return sum(
        b for j, (s, b) in enumerate(profile) if j != agent and s & set_mask and b < ceiling
    )


def ref_search_upper(self, agent, profile):
    return sum(bid for j, (_, bid) in enumerate(profile) if j != agent) + 1


def ref_small_profile(self, profile):
    cap = self.cap
    return tuple(d if d.set_mask.bit_count() <= cap else EMPTY for d in profile)


def ref_grand_bids(profile, grand, skip):
    # the earlier `GrandBundleMechanism._grand_bids` list, then the `max` and
    # `sum` that its callers took of it
    bigs = [(bid, i) for i, (s, bid) in enumerate(profile) if i != skip and s == grand and bid > 0]
    top_bid, top_agent = max(bigs, key=lambda b: (b[0], -b[1]), default=(0, -1))
    return top_bid, top_agent, sum(b for b, _ in bigs)


def ref_two_tier_allocate(profile, item_count):
    grand = full_mask(item_count)
    galloc = ref_greedy_allocate(profile, small_cap(item_count))
    gwelfare = ref_declared_welfare(galloc, profile)
    bigs = [(bid, -i) for i, (s, bid) in enumerate(profile) if s == grand and bid > 0]
    if bigs:
        bid, neg_i = max(bigs)
        if bid > gwelfare:
            alloc = [0] * len(profile)
            alloc[-neg_i] = grand
            return tuple(alloc)
    return galloc


def ref_restrict(profile, side):
    within, low, high = side
    outside = ~within
    return tuple([
        d if not d.set_mask & outside and low <= d.set_mask.bit_count() <= high else EMPTY
        for d in profile
    ])


def ref_resorted_greedy_acceptances(profile, skip, cap=None):
    # the later `greedy_acceptances`, which sorted greedy's winners again
    alloc = greedy_allocate([EMPTY if i == skip else d for i, d in enumerate(profile)], cap)
    order = [(-profile[i][1], i, s) for i, s in enumerate(alloc) if s]
    order.sort()
    return [(-neg_bid, i, s) for neg_bid, i, s in order]


def ref_greedy_welfare(profile):
    """Declared welfare of the greedy run over `profile`."""
    return declared_welfare(greedy_allocate(profile), profile)


def ref_two_sided_thresholds(profile, agent, side_a, side_b):
    def priced(side):
        inside = ref_restrict(profile, side)
        if len(inside) - inside.count(EMPTY) - (inside[agent] != EMPTY) == 0:
            return inside, _greedy_price([], agent, None), 0  # no other bid: nothing accepted
        accepted = ref_resorted_greedy_acceptances(inside, agent)
        return inside, _greedy_price(accepted, agent, None), sum([b for b, _, _ in accepted])

    (a_profile, a_price, a_welfare), (b_profile, b_price, b_welfare) = priced(side_a), priced(side_b)
    a_wins = takeover_price(a_price, ref_greedy_welfare, a_profile, agent, b_welfare, wins_ties=True)
    b_wins = takeover_price(b_price, ref_greedy_welfare, b_profile, agent, a_welfare, wins_ties=False)

    def price_of(set_mask):
        if _holds(side_a, set_mask):
            return a_wins(set_mask)
        if _holds(side_b, set_mask):
            return b_wins(set_mask)
        return None

    return price_of


def ref_partition_max_allocate(profile, side_a, side_b, cap=None):
    if side_a & side_b:
        raise ValidationError("partition sides must be disjoint")
    high = (side_a | side_b).bit_count() if cap is None else cap
    alloc_a = greedy_allocate(ref_restrict(profile, (side_a, 1, high)))
    alloc_b = greedy_allocate(ref_restrict(profile, (side_b, 1, high)))
    if declared_welfare(alloc_a, profile) >= declared_welfare(alloc_b, profile):
        return alloc_a
    return alloc_b


def ref_counterfactual_utilities(self, agent, decls, profile, valuation):
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


# -- inputs and comparison ------------------------------------------------


def same(new, old):
    """Equal values of identical types, element by element."""
    assert type(new) is type(old), (new, old)
    if isinstance(old, (tuple, list)):
        assert len(new) == len(old), (new, old)
        for a, b in zip(new, old):
            same(a, b)
    else:
        assert new == old


def random_declaration(rng, item_count):
    """EMPTY, the grand bundle or any set, with bids from a short range so
    that ties are common."""
    draw = rng.random()
    if draw < 0.2:
        return EMPTY
    grand = full_mask(item_count)
    set_mask = grand if draw < 0.35 else rng.randint(1, grand)
    return Declaration(set_mask, rng.randint(1, 5))


def random_profiles(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.randint(1, 9)
        n = rng.randint(0, 6)
        yield rng, m, tuple(random_declaration(rng, m) for _ in range(n))


def test_profiles_cover_the_corner_cases():
    sizes, counts, grand_bids, empties, ties = set(), set(), 0, 0, 0
    for _, m, profile in random_profiles(PROFILES, seed=23):
        sizes.add(m)
        counts.add(len(profile))
        grand_bids += any(d.set_mask == full_mask(m) for d in profile)
        empties += EMPTY in profile
        bids = [d.bid for d in profile if d.bid]
        ties += len(bids) != len(set(bids))
    assert sizes == set(range(1, 10)) and counts == set(range(7))
    assert min(grand_bids, empties, ties) > PROFILES // 10


# -- the helpers ----------------------------------------------------------


@pytest.mark.parametrize("cap", CAPS)
def test_greedy_helpers_match_their_generator_forms(cap):
    for _, _, profile in random_profiles(PROFILES, seed=23):
        alloc = greedy_allocate(profile, cap)
        same(alloc, ref_greedy_allocate(profile, cap))
        same(declared_welfare(alloc, profile), ref_declared_welfare(alloc, profile))
        for skip in range(-1, len(profile)):
            same(greedy_acceptances(profile, skip, cap), ref_greedy_acceptances(profile, skip, cap))
            same(
                greedy_acceptances(profile, skip, cap),
                ref_resorted_greedy_acceptances(profile, skip, cap),
            )
        if cap is not None:
            same(filtered_pass(profile, cap)[0], list(ref_filtered_allocate(profile, cap)))
            stub = SimpleNamespace(cap=cap)
            same(GrandBundleMechanism._small_profile(stub, profile), ref_small_profile(stub, profile))


def test_sums_and_projections_match_their_generator_forms():
    base = Mechanism()
    for rng, m, profile in random_profiles(PROFILES, seed=29):
        grand = full_mask(m)
        rng.randint(0, grand)  # a draw the sample's later draws follow
        alloc = tuple(rng.choice((0, rng.randint(0, grand))) for _ in profile)
        same(declared_welfare(alloc, profile), ref_declared_welfare(alloc, profile))
        for agent in range(-1, len(profile) + 1):
            set_mask = rng.choice((0, grand, rng.randint(0, grand)))
            ceiling = rng.randint(0, 6)
            same(
                opposing_total(profile, agent, set_mask),
                ref_opposing_total(profile, agent, set_mask),
            )
            same(
                pressure(profile, agent, set_mask, ceiling),
                ref_pressure(profile, agent, set_mask, ceiling),
            )
            same(base._search_upper(agent, profile), ref_search_upper(base, agent, profile))
            same(grand_bids(profile, grand, agent), ref_grand_bids(profile, grand, agent))


def test_two_tier_allocation_matches_its_generator_form():
    for _, m, profile in random_profiles(PROFILES, seed=31):
        if m < 2:
            continue
        same(two_tier_rule(m).allocate(profile), ref_two_tier_allocate(profile, m))


def random_subset(rng, mask):
    """A random subset of `mask`, each of its items kept with odds 1/2."""
    return mask & rng.getrandbits(mask.bit_length())


@pytest.mark.parametrize("cap", CAPS)
def test_two_sided_rules_match_their_projected_forms(cap):
    """Partition allocation and the two-sided prices against the forms that
    projected each side with `restrict`: every agent, priced on the empty
    set, on sets in each side, on sets in neither and on its own set.  Each
    profile is also checked with every set cut down to one side, where the
    two sides' welfares often tie.  The two-tier rule, which has no cap, is
    priced under the first cap only."""
    seen = {"empty": 0, "side a": 0, "side b": 0, "neither": 0, "tie": 0}
    kinds = set()
    for rng, m, drawn in random_profiles(PROFILES // 2, seed=43):
        if m < 2:
            continue
        full = full_mask(m)
        side_a = rng.choice((0, full)) if rng.random() < 0.2 else rng.randint(1, full - 1)
        side_b = full & ~side_a
        high = m if cap is None else cap
        a, b = (side_a, 1, high), (side_b, 1, high)
        cut = tuple(
            Declaration(s if s.bit_count() <= high else s & -s, d.bid)
            if (s := d.set_mask & rng.choice((side_a, side_b))) else EMPTY
            for d in drawn
        )
        for profile in (drawn, cut):
            expected = ref_partition_max_allocate(profile, side_a, side_b, cap)
            same(partition_rule(m, side_a, cap).allocate(profile), expected)
            welfares = {declared_welfare(greedy_allocate(ref_restrict(profile, s)), profile)
                        for s in (a, b)}
            seen["tie"] += len(welfares) == 1 and 0 not in welfares
            rules = [(a, b)]
            if cap is None:
                rules.append(((-1, 1, small_cap(m)), (full, m, m)))
            for sides in rules:
                for agent in range(len(profile)):
                    new = two_sided_thresholds(profile, agent, *sides)
                    old = ref_two_sided_thresholds(profile, agent, *sides)
                    masks = [0, profile[agent].set_mask, rng.randint(1, full)]
                    masks += [random_subset(rng, s[0] & full) for s in sides for _ in range(2)]
                    for mask in masks:
                        price = old(mask)
                        same(new(mask), price)
                        kinds.add(None if price is None else price[1])
                        in_a, in_b = _holds(sides[0], mask), _holds(sides[1], mask)
                        where = "empty" if not mask else "side a" if in_a else "side b" if in_b else "neither"
                        seen[where] += 1
    assert kinds == {None, OPEN, CLOSED}
    assert min(seen.values()) > 40, seen  # welfare ties are the rarest


def test_counterfactual_utilities_match_per_call_branch_weights():
    """Both the Fraction form and the integer form, `(D, numerators)` of
    `scaled_utilities`.  Gamma 1/3 with lottery 1/20 makes the denominators
    coprime, and each profile is also priced for its agent alone."""
    lottery, gamma = Fraction(1, 20), Fraction(1, 4)
    for rng, m, profile in random_profiles(PROFILES // 4, seed=37):
        if m < 2 or not profile:
            continue
        mechanisms = [
            FilteredGreedyMechanism(m, rng.randint(1, 3), lottery),
            GrandBundleMechanism(m, gamma),
            GrandBundleMechanism(m, gamma, lottery),
            GrandBundleMechanism(m, Fraction(1, 3), lottery),
        ]
        agent = rng.randrange(len(profile))
        decls = [EMPTY] + [random_declaration(rng, m) for _ in range(4)]
        valuation = Valuation([(rng.randint(1, full_mask(m)), rng.randint(1, 8))])
        for mechanism in mechanisms:
            for bidder, bids in ((agent, profile), (0, (profile[agent],))):
                expected = ref_counterfactual_utilities(mechanism, bidder, decls, bids, valuation)
                same(
                    mechanism.counterfactual_utilities(bidder, decls, bids, valuation),
                    expected,
                )
                denominator, numerators = mechanism.scaled_utilities(
                    bidder, decls, bids, valuation
                )
                assert type(denominator) is int and denominator > 0
                assert [type(t) for t in numerators] == [int] * len(decls)
                assert [Fraction(t, denominator) for t in numerators] == expected
