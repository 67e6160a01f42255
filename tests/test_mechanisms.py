import itertools
from fractions import Fraction

import pytest

from auctionlab import (
    CLOSED,
    EMPTY,
    OPEN,
    Declaration,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    NonMonotoneDecisionError,
    RuleMechanism,
    ValidationError,
    Valuation,
    greedy_allocate,
    greedy_rule,
    optimal_welfare,
    partition_rule,
    search_critical_price,
    separated_flags,
    single_minded,
    two_tier_rule,
)
from auctionlab import algorithms, mechanisms
from auctionlab.agents import BestResponder, best_response, make_agent
from auctionlab.core import declared_welfare, full_mask
from auctionlab.dynamics import seeded_rng
from auctionlab.mechanisms import COIN_IGNORE_GRAND, COIN_NONE, Coin, Mechanism
from auctionlab.generate import random_profile, random_types, truthful_profile

from conftest import A, B, C, D


def top_atom_profile(types):
    """Each agent declares its highest-value atom, the first of equal ones
    (atoms are in bundle order, so the smaller set); worthless types declare
    EMPTY."""
    return tuple(single_minded(*max(t.atoms, key=lambda a: a[1], default=(0, 0))) for t in types)


class TestCriticalPriceSearch:
    def test_tie_win_is_closed(self, cycle_mechanism):
        others = (EMPTY, Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))
        assert cycle_mechanism.critical_price(0, D, others) == (5, CLOSED)

    def test_unopposed_set_is_free_and_open(self, cycle_mechanism):
        others = (Declaration(D, 6), EMPTY, Declaration(C, 4), Declaration(D, 5))
        assert cycle_mechanism.critical_price(1, A, others) == (0, OPEN)

    def test_sole_bidder(self, cycle_mechanism):
        others = (EMPTY, EMPTY, EMPTY, EMPTY)
        assert cycle_mechanism.critical_price(0, A | B, others) == (0, OPEN)

    def test_losing_tie_gives_open_boundary(self, cycle_mechanism):
        # the blocking accepted bid belongs to a lower-index agent
        others = (Declaration(A | B, 4), EMPTY, Declaration(C, 4), Declaration(D, 5))
        assert cycle_mechanism.critical_price(1, B | C, others) == (4, OPEN)

    def test_oversized_set_unwinnable(self, cycle_mechanism):
        others = (EMPTY, EMPTY, EMPTY, EMPTY)
        assert cycle_mechanism.critical_price(0, A | B | C, others) is None

    def test_generic_search_detects_non_monotone(self):
        # the tie-losing probe wins strictly below the natural minimal tick,
        # which no monotone decision can do
        def decide(bid, lose_ties):
            if lose_ties:
                return bid >= 3
            return bid == 5 or bid >= 7

        with pytest.raises(NonMonotoneDecisionError):
            search_critical_price(decide, 7)

    def test_search_no_winning_bid(self):
        assert search_critical_price(lambda bid, lose: False, 10) is None


class TestRuleMechanismOutcome:
    def test_cycle_start_payments(self, cycle_types, cycle_mechanism):
        out = cycle_mechanism.outcome(top_atom_profile(cycle_types))
        assert out.allocation == (D, B | C, 0, 0)
        assert out.payments == (5, 4, 0, 0)

    def test_all_empty(self, cycle_mechanism):
        out = cycle_mechanism.outcome((EMPTY,) * 4)
        assert out.allocation == (0, 0, 0, 0)
        assert out.payments == (0, 0, 0, 0)

    def test_single_truthful_bidder_pays_nothing(self, cycle_mechanism):
        out = cycle_mechanism.outcome((Declaration(A, 7),))
        assert out.allocation == (A,)
        assert out.payments == (0,)


class TestFilteredGreedy:
    def test_filter_drops_pressured_winner(self):
        mech = FilteredGreedyMechanism(4, 2)
        profile = (Declaration(A, 5), Declaration(A | B, 3), Declaration(B, 1))
        out = mech.outcome(profile)
        assert out.allocation == (A, 0, 0)
        assert out.payments == (3, 0, 0)

    def test_all_empty(self):
        out = FilteredGreedyMechanism(4, 2).outcome((EMPTY, EMPTY))
        assert out.allocation == (0, 0)

    def test_sole_bidder_pays_zero_open(self):
        mech = FilteredGreedyMechanism(4, 2)
        assert mech.outcome((Declaration(A, 2),)).payments == (0,)
        assert mech.critical_price(0, A, (EMPTY,)) == (0, OPEN)

    @pytest.mark.parametrize("cap", [None, 0])
    def test_cap_is_required(self, cap):
        with pytest.raises(ValidationError, match="^s: ") as caught:
            FilteredGreedyMechanism(4, cap)
        assert caught.value.arg == "s"

    def test_allocation_matches_greedy_then_filter(self):
        """The characterization the mechanism allocates by agrees with the
        pipeline it stands for: capped greedy, then every winner whose bid
        does not exceed the other intersecting bids put together is dropped."""

        def greedy_then_filter(profile, cap):
            alloc = list(greedy_allocate(profile, cap))
            for i, won in enumerate(alloc):
                pressure = sum(o.bid for j, o in enumerate(profile) if j != i and o.set_mask & won)
                if won and profile[i].bid <= pressure:
                    alloc[i] = 0
            return tuple(alloc)

        mech = FilteredGreedyMechanism(6, 2)
        rng = seeded_rng(41, "characterization")
        winners = 0
        for _ in range(2000):
            profile = random_profile(rng, 5, 6, max_size=3, max_value=16)
            expected = greedy_then_filter(profile, 2)
            assert mech.allocate(profile) == expected
            winners += sum(1 for won in expected if won)
        assert winners > 1000  # the filter keeps winners, not only empty allocations

    def test_separated_winner_matches_max_form_off_boundary(self):
        mech = FilteredGreedyMechanism(6, 2)
        rng = seeded_rng(43, "max-form")
        checked = 0
        for _ in range(4000):
            types = random_types(rng, 4, 6, max_atoms=2, max_value=16, max_size=2)
            profile = truthful_profile(rng, types)
            if not all(separated_flags(profile, types)):
                continue
            alloc = mech.allocate(profile)
            for i, d in enumerate(profile):
                if d.is_empty or d.set_mask.bit_count() > 2:
                    continue
                rivals = [
                    o.bid for j, o in enumerate(profile) if j != i and o.set_mask & d.set_mask
                ]
                if sum(rivals) == d.bid:
                    continue  # exact filter boundary: the pipeline drops, the max form keeps
                checked += 1
                assert (alloc[i] == d.set_mask) == (max(rivals, default=0) < d.bid)
        assert checked > 1000


class TestGrandBundle:
    @pytest.fixture
    def mech(self):
        return GrandBundleMechanism(4, Fraction(1, 100))

    @pytest.fixture
    def profile(self):
        return (Declaration(0b1111, 10), Declaration(A, 3), Declaration(B, 3))

    def test_grand_winner_pays_small_welfare(self, mech, profile):
        out = mech.outcome(profile, COIN_NONE)
        assert out.allocation == (0b1111, 0, 0)
        assert out.payments == (6, 0, 0)
        assert mech.critical_price(0, 0b1111, profile, COIN_NONE) == (6, OPEN)

    def test_ignore_branch_blanks_grand_bids(self, mech, profile):
        out = mech.outcome(profile, Coin(ignore_grand=True))
        assert out.allocation == (0, A, B)
        assert out.payments == (0, 0, 0)

    def test_all_empty(self, mech):
        assert mech.outcome((EMPTY,) * 3).allocation == (0, 0, 0)

    def test_expected_utility_mixes_branches(self, mech, profile):
        v = Valuation([(0b1111, 10)])
        expected = Fraction(99, 100) * 4  # wins 10 pay 6 in the keep branch, 0 otherwise
        assert mech.expected_utility(0, profile[0], profile, v) == expected
        assert mech.counterfactual_utilities(0, [profile[0], EMPTY], profile, v) == [expected, 0]

    def test_gamma_zero_and_one_limits(self, profile):
        v = Valuation([(0b1111, 10)])
        keep_only = GrandBundleMechanism(4, Fraction(0))
        assert keep_only.expected_utility(0, profile[0], profile, v) == 4
        almost_one = GrandBundleMechanism(4, Fraction(999, 1000))
        assert almost_one.expected_utility(0, profile[0], profile, v) == Fraction(1, 1000) * 4

    def test_mid_size_sets_unwinnable(self):
        mech = GrandBundleMechanism(9, Fraction(1, 100))
        others = (EMPTY, EMPTY)
        assert mech.critical_price(0, 0b11111, others) is None  # size 5 > ceil(sqrt(9))

    def test_grand_tie_never_wins(self):
        mech = GrandBundleMechanism(4, Fraction(0))
        grand = 0b1111
        profile = (Declaration(grand, 8), Declaration(grand, 8))
        assert mech.allocate(profile) == (0, 0)

    def test_grand_threshold_includes_takeover_margin(self):
        # a standing grand bid forces small bidders above (grand - companions)
        mech = GrandBundleMechanism(4, Fraction(0))
        others = (Declaration(0b1111, 9), Declaration(B, 3), EMPTY)
        price = mech.critical_price(2, A, others)
        # winning alone at 1..2 still loses to the grand takeover (9 > bid+3)
        assert price == (6, CLOSED)
        assert not mech.wins(2, A, 5, others)
        assert mech.wins(2, A, 6, others)

    def test_two_items_closed_forms_match_generic_search(self):
        # ceil(sqrt(2)) = 2 items, yet the small sets are the singletons
        mech = GrandBundleMechanism(2, Fraction(1, 4), lottery=Fraction(1, 8))
        decls = [EMPTY] + [Declaration(s, b) for s in (0b01, 0b10, 0b11) for b in (1, 2, 3)]
        for profile in itertools.product(decls, repeat=3):
            for agent in range(3):
                for _, coin in mech.branches:
                    price_of = mech.thresholds(profile, agent, coin)
                    for mask in (0b01, 0b10, 0b11):
                        assert price_of(mask) == Mechanism.critical_price(
                            mech, agent, mask, profile, coin
                        )

    def test_two_items_outcome_utility_is_the_expected_utility(self):
        mech = GrandBundleMechanism(2, Fraction(0))
        profile = (Declaration(0b11, 3), Declaration(0b01, 3))
        v = Valuation([(0b11, 10)])
        out = mech.outcome(profile)
        assert out.allocation == (0, 0b01)
        assert mech.expected_utility(0, profile[0], profile, v) == out.utility(0, v) == 0


def reference_grand_allocate(mech, profile, coin):
    """The grand-bundle allocation built step by step: filtered greedy over
    the small sets, then the grand branch when its top bid strictly beats
    the other grand bids and the small side's declared welfare."""
    small = tuple(d if d.set_mask.bit_count() <= mech.cap else EMPTY for d in profile)
    alloc = tuple(algorithms.filtered_pass(small, mech.cap)[0])
    if not coin.ignore_grand:
        top_bid, top_agent, total = algorithms.grand_bids(profile, mech.grand)
        if top_bid > total - top_bid and top_bid > declared_welfare(alloc, profile):
            return tuple(mech.grand if i == top_agent else 0 for i in range(len(profile)))
    return alloc


def settled_cases(rng, count):
    """`count` seeded (mechanism, profile, coins) cases of filtered greedy
    (caps 1-3) and the grand-bundle mechanism on m = 2..10 items, 1-7
    agents with 0-3 grand bids, and value ranges small enough for exact ties.
    The coins are the mechanism's branches and a lottery coin."""
    cases = []
    for k in range(count):
        m = rng.randint(2, 10)
        if k % 2:
            mech = GrandBundleMechanism(m, Fraction(1, 10))
        else:
            mech = FilteredGreedyMechanism(m, rng.randint(1, 3))
        n = rng.randint(1, 7)
        top = rng.choice([2, 3, 6, 24])
        profile = list(random_profile(rng, n, m, max_size=3, max_value=top))
        for _ in range(rng.randint(0, 3)):
            profile[rng.randrange(n)] = Declaration(full_mask(m), rng.randint(1, 3 * top))
        coins = [coin for _, coin in mech.branches] + [Coin(lottery_agent=rng.randrange(n))]
        cases.append((mech, tuple(profile), coins))
    return cases


class TestSettledOutcomes:
    """Filtered greedy and the grand-bundle mechanism charge their winners
    from one allocation pass and price from one pass without the agent;
    both against the generic search over the step-by-step allocation."""

    @pytest.mark.parametrize("seed", range(2))
    def test_outcomes_and_prices_match_generic_search(self, monkeypatch, seed):
        monkeypatch.setattr(GrandBundleMechanism, "_allocate", reference_grand_allocate)
        for mech, profile, coins in settled_cases(seeded_rng(79 + seed, "settled"), 150):
            grand = full_mask(mech.item_count)
            masks = {d.set_mask for d in profile} | {grand, 1, 3}
            for coin in coins:
                alloc = mech.allocate(profile, coin)
                payments = [
                    Mechanism.critical_price(mech, i, mask, profile, coin)[0]
                    if mask and coin.lottery_agent is None else 0
                    for i, mask in enumerate(alloc)
                ]
                assert mech.outcome(profile, coin) == (alloc, tuple(payments))
                if coin.lottery_agent is not None:
                    continue  # a lottery round has no price
                for i in range(len(profile)):
                    price_of = mech.thresholds(profile, i, coin)
                    for mask in masks:
                        assert price_of(mask) == Mechanism.critical_price(
                            mech, i, mask, profile, coin
                        )

    def test_one_allocation_pass_per_outcome_and_thresholds(self, monkeypatch):
        # the mechanisms allocate only through `filtered_pass`
        passes = []

        def counted(*args):
            passes.append(args)
            return algorithms.filtered_pass(*args)

        monkeypatch.setattr(mechanisms, "filtered_pass", counted)
        priced_with_pass = 0
        for mech, profile, _ in settled_cases(seeded_rng(83, "one-pass"), 300):
            masks = range(1, full_mask(mech.item_count) + 1)
            for _, coin in mech.branches:
                del passes[:]
                mech.outcome(profile, coin)
                assert len(passes) == 1
                for i in range(len(profile)):
                    del passes[:]
                    list(map(mech.thresholds(profile, i, coin), masks))
                    assert len(passes) <= 1
                    priced_with_pass += len(passes)
        assert priced_with_pass > 100


def two_sided_mechanism(rng, m):
    """A two-tier mechanism or a partition mechanism on `m` items, with a
    random side A (empty and full among them) and cap."""
    if rng.random() < 0.5:
        return RuleMechanism(two_tier_rule(m), m)
    full = full_mask(m)
    side_a = rng.choice([0, full, rng.randrange(full + 1)])
    return RuleMechanism(partition_rule(m, side_a, rng.choice([None, 1, 2, 3])), m)


def two_sided_profile(rng, mech):
    """A random profile of 2-5 agents, with a grand-bundle bid in half of them."""
    m = mech.item_count
    profile = list(random_profile(rng, rng.randint(2, 5), m, max_size=m, max_value=12))
    if rng.random() < 0.5:
        profile[rng.randrange(len(profile))] = Declaration(full_mask(m), rng.randint(1, 30))
    return tuple(profile)


class TestTwoSidedRuleThresholds:
    """The closed forms of the two-tier and partition rules against the
    generic search, which reads only their allocations."""

    @pytest.mark.parametrize("seed", range(3))
    def test_every_set_matches_generic_search(self, seed):
        rng = seeded_rng(61 + seed, "two-sided-thresholds")
        for _ in range(100):
            mech = two_sided_mechanism(rng, rng.randint(2, 7))
            profile = two_sided_profile(rng, mech)
            for i in range(len(profile)):
                price_of = mech.thresholds(profile, i)
                for mask in range(full_mask(mech.item_count) + 1):
                    assert price_of(mask) == Mechanism.critical_price(mech, i, mask, profile)

    @pytest.mark.parametrize(
        "mech",
        [
            RuleMechanism(two_tier_rule(3), 3),
            RuleMechanism(partition_rule(3, 0b001), 3),
            RuleMechanism(partition_rule(3, 0b011, 1), 3),
            RuleMechanism(two_tier_rule(4), 4),  # cap 2: the size-3 sets never win
        ],
        ids=["two-tier", "partition-a", "partition-ab-cap-1", "two-tier-mid-size"],
    )
    def test_every_small_profile_matches_generic_search(self, mech):
        sets = range(1, full_mask(mech.item_count) + 1)
        decls = [EMPTY] + [Declaration(s, b) for s in sets for b in (1, 2, 3)]
        for others in itertools.product(decls, repeat=2):
            for agent in range(3):
                profile = (*others[:agent], EMPTY, *others[agent:])
                price_of = mech.thresholds(profile, agent)
                for mask in sets:
                    assert price_of(mask) == Mechanism.critical_price(mech, agent, mask, profile)

    def test_boundary_semantics(self):
        rng = seeded_rng(67, "two-sided-payments")
        for _ in range(600):
            mech = two_sided_mechanism(rng, rng.randint(2, 7))
            profile = two_sided_profile(rng, mech)
            out = mech.outcome(profile)
            for i, mask in enumerate(out.allocation):
                if not mask:
                    continue
                theta, boundary = mech.critical_price(i, mask, profile)
                assert out.payments[i] == theta
                losing = theta if boundary == OPEN else theta - 1
                if losing >= 1:
                    assert not mech.wins(i, mask, losing, profile)
                assert mech.wins(i, mask, theta + 1, profile)

    def test_prices_never_search(self, monkeypatch):
        rng = seeded_rng(71, "two-sided-no-search")
        cases = []
        for _ in range(60):
            mech = two_sided_mechanism(rng, rng.randint(2, 7))
            cases.append((mech, two_sided_profile(rng, mech)))

        def no_search(*args, **kwargs):
            raise AssertionError("priced by the generic search")

        monkeypatch.setattr(Mechanism, "wins", no_search)
        for mech, profile in cases:
            out = mech.outcome(profile)
            decls = [EMPTY, *profile]
            for i, d in enumerate(profile):
                price_of = mech.thresholds(profile, i)
                for mask in range(full_mask(mech.item_count) + 1):
                    price_of(mask)
                v = Valuation([(d.set_mask, d.bid)] if d.set_mask else [])
                utilities = mech.counterfactual_utilities(i, decls, profile, v)
                assert utilities[1 + i] == out.utility(i, v)


class TestSeparation:
    def test_all_empty_profile_is_separated(self):
        assert separated_flags((EMPTY, EMPTY), [Valuation(), Valuation()]) == (True, True)

    def test_truthful_pair(self):
        types = [Valuation([(A, 5)]), Valuation([(A, 3)])]
        profile = (Declaration(A, 5), Declaration(A, 3))
        assert separated_flags(profile, types) == (True, True)

    def test_weak_inequality_boundary(self):
        types = [Valuation([(A, 2)]), Valuation([(A, 1)]), Valuation([(A, 1)])]
        profile = (Declaration(A, 2), Declaration(A, 1), Declaration(A, 1))
        assert separated_flags(profile, types) == (True, True, True)

    def test_violation_detected(self):
        types = [Valuation([(A | B, 10)]), Valuation([(A, 4)]), Valuation([(B, 4)])]
        profile = (Declaration(A | B, 6), Declaration(A, 4), Declaration(B, 4))
        assert separated_flags(profile, types) == (False, True, True)

    def test_flags_follow_the_types_passed(self):
        profile = (Declaration(A | B, 6), Declaration(A, 4), Declaration(B, 4))
        high = [Valuation([(A | B, 10)]), Valuation([(A, 4)]), Valuation([(B, 4)])]
        low = [Valuation([(A | B, 4)]), Valuation([(A, 4)]), Valuation([(B, 4)])]
        for _ in range(2):
            assert separated_flags(profile, high) == (False, True, True)
            assert separated_flags(list(profile), low) == (True, True, True)

    def test_edited_types_list_is_read_afresh(self):
        types = [Valuation([(0b01, 5)]), Valuation([(0b11, 3)])]
        profile = (Declaration(0b01, 2), Declaration(0b11, 3))
        assert separated_flags(profile, types) == (False, True)
        types[0] = Valuation([(0b01, 1)])
        assert separated_flags(profile, types) == (True, True)

    def test_flags_match_direct_computation(self):
        def direct(profile, types):
            return tuple(
                d.is_empty
                or sum(
                    o.bid
                    for j, o in enumerate(profile)
                    if j != i and o.set_mask & d.set_mask
                    and o.bid < types[i].value_of(d.set_mask)
                ) <= d.bid
                for i, d in enumerate(profile)
            )

        rng = seeded_rng(41, "separation-memo")
        types = random_types(rng, 4, 5, max_atoms=2, max_value=8, max_size=2)
        profiles = [random_profile(rng, 4, 5, max_size=2, max_value=8) for _ in range(30)]
        for profile in profiles + profiles[::-1]:
            assert separated_flags(profile, types) == direct(profile, types)


class TestPaymentExactness:
    def _mechanisms(self):
        return [
            RuleMechanism(greedy_rule(2), 6),
            FilteredGreedyMechanism(6, 2),
            GrandBundleMechanism(9, Fraction(1, 100)),
        ]

    def test_boundary_semantics(self):
        rng = seeded_rng(47, "payment-unit")
        mechs = self._mechanisms()
        for trial in range(600):
            mech = mechs[trial % 3]
            m = mech.item_count
            profile = random_profile(rng, 4, m, max_size=3, max_value=20)
            coins = [COIN_NONE]
            if isinstance(mech, GrandBundleMechanism):
                coins.append(Coin(ignore_grand=True))
            for coin in coins:
                out = mech.outcome(profile, coin)
                for i, mask in enumerate(out.allocation):
                    if not mask:
                        continue
                    theta, boundary = mech.critical_price(i, mask, profile, coin)
                    assert out.payments[i] == theta
                    losing = theta if boundary == OPEN else theta - 1
                    if losing >= 1:
                        assert not mech.wins(i, mask, losing, profile, coin)
                    assert mech.wins(i, mask, theta + 1, profile, coin)

    def test_closed_forms_match_generic_search(self):
        rng = seeded_rng(53, "theta-vs-search")
        mechs = self._mechanisms()
        for trial in range(400):
            mech = mechs[trial % 3]
            m = mech.item_count
            profile = random_profile(rng, 4, m, max_size=4, max_value=16)
            i = rng.randrange(4)
            mask = random_profile(rng, 1, m, max_size=4, max_value=5, empty_prob=0)[0].set_mask
            coins = [COIN_NONE]
            if isinstance(mech, GrandBundleMechanism):
                coins.append(Coin(ignore_grand=True))
                if rng.random() < 0.3:
                    mask = full_mask(m)
            for coin in coins:
                assert mech.critical_price(i, mask, profile, coin) == Mechanism.critical_price(
                    mech, i, mask, profile, coin
                )

    def test_one_thresholds_call_prices_every_set(self):
        # the per-call state of `thresholds` is shared by all sets asked of it
        rng = seeded_rng(57, "thresholds-many-sets")
        mechs = self._mechanisms()
        for trial in range(150):
            mech = mechs[trial % 3]
            m = mech.item_count
            profile = random_profile(rng, 4, m, max_size=4, max_value=16)
            i = rng.randrange(4)
            masks = [d.set_mask for d in random_profile(rng, 6, m, max_size=4, max_value=5)]
            masks.append(full_mask(m))
            coins = [COIN_NONE]
            if isinstance(mech, GrandBundleMechanism):
                coins.append(Coin(ignore_grand=True))
            for coin in coins:
                price_of = mech.thresholds(profile, i, coin)
                for mask in masks:
                    assert price_of(mask) == Mechanism.critical_price(mech, i, mask, profile, coin)

    @pytest.mark.parametrize("index", range(3))
    def test_generic_search_does_not_read_thresholds(self, monkeypatch, index):
        # perfbench and the tests above take the unbound base method as the reference
        mech = self._mechanisms()[index]
        profile = (Declaration(A, 5), Declaration(A | B, 3))
        search = Mechanism.critical_price(mech, 1, A | B, profile)
        monkeypatch.setattr(type(mech), "thresholds", lambda *args: lambda mask: (99, CLOSED))
        assert mech.critical_price(1, A | B, profile) == (99, CLOSED)
        assert Mechanism.critical_price(mech, 1, A | B, profile) == search != (99, CLOSED)

    def test_utilities_are_ints_only_when_deterministic(self):
        v = Valuation([(A, 5)])
        profile = (Declaration(A, 5), Declaration(A, 3))
        for mech, kind in (
            (RuleMechanism(greedy_rule(2), 4), int),
            (FilteredGreedyMechanism(4, 2), int),
            (FilteredGreedyMechanism(4, 2, lottery=Fraction(0)), int),
            (GrandBundleMechanism(4, Fraction(0)), int),
            (GrandBundleMechanism(4, Fraction(1, 10)), Fraction),
            (FilteredGreedyMechanism(4, 2, lottery=Fraction(1, 10)), Fraction),
        ):
            utilities = mech.counterfactual_utilities(0, [profile[0], EMPTY], profile, v)
            assert [type(u) for u in utilities] == [kind, kind]

    def test_best_response_builds_no_fraction(self, monkeypatch):
        # best responses compare the integer numerators of `scaled_utilities`;
        # only a mechanism's first call builds its cached weights
        rng = seeded_rng(63, "integer-best-response")
        mechs = [GrandBundleMechanism(6, Fraction(1, 100)),
                 GrandBundleMechanism(6, Fraction(0), Fraction(1, 20)),
                 GrandBundleMechanism(6, Fraction(1, 3), Fraction(1, 7))]
        cases = []
        for mech in mechs:
            types = random_types(rng, 4, 6, max_atoms=3, max_value=16, max_size=3, grand_prob=0.3)
            agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
            profiles = [random_profile(rng, 4, 6, max_size=6, max_value=20) for _ in range(20)]
            best_response(agents[0], profiles[0], mech)
            cases.append((mech, agents, profiles))
        built = []
        fraction_new = Fraction.__new__

        def counted_new(cls, *args, **kwargs):
            built.append(args)
            return fraction_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted_new)
        for mech, agents, profiles in cases:
            for profile in profiles:
                for model in agents:
                    for keep_on_tie in (True, False):
                        best_response(model, profile, mech, keep_on_tie)
        assert built == []
        Fraction(1, 2)
        assert built == [(1, 2)]  # the patch sees a construction

    def test_truthful_play_is_individually_rational(self):
        rng = seeded_rng(59, "ir")
        mechs = self._mechanisms()
        for trial in range(400):
            mech = mechs[trial % 3]
            types = random_types(rng, 4, mech.item_count, max_size=2, max_value=16)
            profile = top_atom_profile(types)
            out = mech.outcome(profile)
            for i, t in enumerate(types):
                assert out.utility(i, t) >= 0


class TestThresholdSumBound:
    def test_greedy_rule_bound_on_random_profiles(self):
        # declared welfare of the rule covers the per-agent thresholds of any
        # feasible target allocation, up to the rule's approximation factor
        rng = seeded_rng(61, "threshold-sum-unit")
        for s in (1, 2, 3):
            mech = RuleMechanism(greedy_rule(s), 7)
            for _ in range(200):
                n = rng.randint(2, 5)
                profile = random_profile(rng, n, 7, max_size=s, max_value=24)
                bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
                target, _ = __import__("auctionlab").optimal_allocation(bids, n, cap=s)
                lhs = (s + 1) * declared_welfare(mech.allocate(profile), profile)
                rhs = 0
                for i, mask in enumerate(target):
                    if mask:
                        rhs += mech.critical_price(i, mask, profile)[0]
                assert lhs >= rhs


class TestWelfareShiftBound:
    def test_single_bid_shift_is_bounded(self):
        # when the filtered mechanism allocates an agent his set, removing his
        # bid moves the declared welfare by at least his margin over the
        # intersecting bids and at most his bid
        mech = FilteredGreedyMechanism(6, 2)
        rng = seeded_rng(67, "shift-bound")

        def mech_welfare(profile):
            return declared_welfare(mech.allocate(profile), profile)

        checked = 0
        for _ in range(3000):
            types = random_types(rng, 4, 6, max_atoms=2, max_value=16, max_size=2)
            profile = truthful_profile(rng, types)
            if not all(separated_flags(profile, types)):
                continue
            alloc = mech.allocate(profile)
            for i, d in enumerate(profile):
                if d.is_empty or alloc[i] != d.set_mask:
                    continue
                checked += 1
                without = tuple(EMPTY if j == i else o for j, o in enumerate(profile))
                shift = mech_welfare(profile) - mech_welfare(without)
                margin = d.bid - sum(
                    o.bid for j, o in enumerate(profile) if j != i and o.set_mask & d.set_mask
                )
                assert margin <= shift <= d.bid
        assert checked > 1000


class TestCoverageWelfareBound:
    def test_bound_on_clean_separated_profiles(self):
        # 4(s+1) times the mechanism welfare covers the target values of all
        # agents that are either pressured or committed; profiles with bid
        # ties or exact filter boundaries are excluded (integer-grid
        # degeneracies masked by the strict inequalities in the definitions)
        s = 2
        mech = FilteredGreedyMechanism(6, s)
        rng = seeded_rng(71, "coverage-bound")
        checked = 0
        for _ in range(6000):
            types = random_types(rng, 4, 6, max_atoms=2, max_value=24, max_size=2)
            profile = truthful_profile(rng, types)
            bids = [d.bid for d in profile if not d.is_empty]
            if len(set(bids)) != len(bids):
                continue
            if not all(separated_flags(profile, types)):
                continue
            if any(
                not d.is_empty
                and d.bid
                == sum(o.bid for j, o in enumerate(profile) if j != i and o.set_mask & d.set_mask)
                for i, d in enumerate(profile)
            ):
                continue
            checked += 1
            target, _ = optimal_welfare(types, s)
            covered = 0
            for i, d in enumerate(profile):
                goal = types[i].value_of(target[i])
                pressure = sum(
                    o.bid for j, o in enumerate(profile) if j != i and o.set_mask & target[i]
                )
                if 2 * pressure > goal or 2 * d.bid >= goal:
                    covered += goal
            assert 4 * (s + 1) * declared_welfare(mech.allocate(profile), profile) >= covered
        assert checked > 2000


class TestLottery:
    def test_lottery_round_gives_everything_to_separated_agent(self):
        mech = FilteredGreedyMechanism(4, 2, lottery=Fraction(1, 10))
        profile = (Declaration(A, 5), Declaration(B, 3))
        out = mech.outcome(profile, Coin(lottery_agent=1))
        assert out.allocation == (0, 0b1111)
        assert out.payments == (0, 0)

    def test_lottery_skips_non_separated_agent(self):
        mech = FilteredGreedyMechanism(4, 2, lottery=Fraction(1, 10))
        # agent 0's bid is below the strictly smaller intersecting bids
        profile = (Declaration(A | B, 3), Declaration(A, 2), Declaration(B, 2))
        out = mech.outcome(profile, Coin(lottery_agent=0))
        assert out.allocation == (0, 0, 0)

    def test_expected_utility_includes_lottery_share(self):
        mech = FilteredGreedyMechanism(4, 2, lottery=Fraction(1, 10))
        types = [Valuation([(A, 5)]), Valuation([(B, 3)])]
        profile = (Declaration(A, 5), EMPTY)
        u = mech.expected_utility(0, profile[0], profile, types[0])
        # nine tenths of the mechanism utility plus his half of the lottery
        assert u == Fraction(9, 10) * 5 + Fraction(1, 10) * Fraction(1, 2) * 5


def reference_draw_coin(mech, rng, n_agents):
    """One round's coin as first drawn, a round at a time: the draws
    `draw_coins` must repeat."""
    if mech.lottery and rng.random() < float(mech.lottery):
        return Coin(lottery_agent=rng.randrange(n_agents))
    gamma = getattr(mech, "gamma", 0)
    if gamma and rng.random() < float(gamma):
        return COIN_IGNORE_GRAND
    return COIN_NONE


class TestDrawCoins:
    @pytest.mark.parametrize("mech", [
        FilteredGreedyMechanism(8, 2),
        GrandBundleMechanism(8, Fraction(1, 4)),
        FilteredGreedyMechanism(8, 2, lottery=Fraction(1, 16)),
        GrandBundleMechanism(8, Fraction(1, 4), lottery=Fraction(1, 16)),
    ], ids=["no-coin", "gamma", "lottery", "lottery-and-gamma"])
    def test_same_coins_and_draws_as_one_round_at_a_time(self, mech):
        for seed in range(4):
            bulk, one = seeded_rng(seed, "coins"), seeded_rng(seed, "coins")
            coins = mech.draw_coins(bulk, 5, 1500)
            assert coins == [reference_draw_coin(mech, one, 5) for _ in range(1500)]
            assert bulk.getstate() == one.getstate()
        # every draw the mechanism makes fired at least once, and no other
        lottery_rounds = sum(c.lottery_agent is not None for c in coins)
        assert (lottery_rounds > 0) == bool(mech.lottery)
        assert (COIN_IGNORE_GRAND in coins) == bool(getattr(mech, "gamma", 0))
