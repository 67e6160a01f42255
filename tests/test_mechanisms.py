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
    Valuation,
    greedy_rule,
    optimal_welfare,
    search_critical_price,
    separated_flags,
    simplify,
)
from auctionlab.core import declared_welfare, full_mask
from auctionlab.dynamics import seeded_rng
from auctionlab.mechanisms import COIN_NONE, Coin, Mechanism
from auctionlab.generate import random_profile, random_types, truthful_profile

from conftest import A, B, C, D


class TestSimplify:
    def test_picks_max_value_atom(self, cycle_types):
        assert simplify(cycle_types)[0] == Declaration(D, 6)

    def test_empty_valuation(self):
        assert simplify([Valuation()]) == (EMPTY,)

    def test_tie_prefers_smaller_set(self):
        assert simplify([Valuation([(A | B, 5), (C, 5)])]) == (Declaration(C, 5),)

    def test_declarations_pass_through(self):
        d = Declaration(A, 3)
        assert simplify([d, EMPTY]) == (d, EMPTY)


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
        out = cycle_mechanism.outcome(cycle_types)
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

    def test_winner_iff_bid_exceeds_intersecting_sum(self):
        mech = FilteredGreedyMechanism(6, 2)
        rng = seeded_rng(41, "characterization")
        for _ in range(2000):
            profile = random_profile(rng, 5, 6, max_size=3, max_value=16)
            alloc = mech.allocate(profile)
            for i, d in enumerate(profile):
                should_win = (
                    not d.is_empty
                    and d.set_mask.bit_count() <= 2
                    and d.bid
                    > sum(o.bid for j, o in enumerate(profile) if j != i and o.set_mask & d.set_mask)
                )
                assert (alloc[i] == d.set_mask and not d.is_empty) == should_win

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

    def test_memo_follows_the_types_object(self):
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

    def test_memo_matches_direct_computation(self):
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

    def test_utilities_are_ints_only_when_deterministic(self):
        v = Valuation([(A, 5)])
        profile = (Declaration(A, 5), Declaration(A, 3))
        for mech, kind in (
            (RuleMechanism(greedy_rule(2), 4), int),
            (FilteredGreedyMechanism(4, 2), int),
            (GrandBundleMechanism(4, Fraction(0)), int),
            (GrandBundleMechanism(4, Fraction(1, 10)), Fraction),
            (FilteredGreedyMechanism(4, 2, lottery=Fraction(1, 10)), Fraction),
        ):
            utilities = mech.counterfactual_utilities(0, [profile[0], EMPTY], profile, v)
            assert [type(u) for u in utilities] == [kind, kind]

    def test_truthful_play_is_individually_rational(self):
        rng = seeded_rng(59, "ir")
        mechs = self._mechanisms()
        for trial in range(400):
            mech = mechs[trial % 3]
            types = random_types(rng, 4, mech.item_count, max_size=2, max_value=16)
            profile = simplify(types)
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
