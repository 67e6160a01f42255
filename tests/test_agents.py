import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from auctionlab import (
    EMPTY,
    BestResponder,
    ByzantineBidder,
    Declaration,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    PerturbedLearner,
    Valuation,
    WeightedLearner,
    best_response,
    byzantine_bid,
    counterfactual_utilities,
    external_regret,
    full_mask,
    make_agent,
    optimal_welfare,
    undominated_bid,
)
from auctionlab.agents import (
    AgentModel,
    PerturbedLearnerState,
    WeightedLearnerState,
    learner_state_for,
)
from auctionlab.core import declared_welfare
from auctionlab.dynamics import (
    RunConfig,
    run_best_response_dynamics,
    run_regret_dynamics,
    seeded_rng,
)
from auctionlab.generate import random_types
from auctionlab.mechanisms import COIN_NONE

from conftest import A, B, C, D


class TestUndominatedBid:
    def test_bids_true_value_on_chosen_set(self, cycle_types):
        assert undominated_bid(cycle_types[0], A | B) == Declaration(A | B, 4)

    def test_empty_choice(self, cycle_types):
        assert undominated_bid(cycle_types[0], 0) is EMPTY

    def test_worthless_bundle(self, cycle_types):
        assert undominated_bid(cycle_types[2], A) is EMPTY


class TestBestResponse:
    def test_switch_to_free_singleton(self, cycle_types, cycle_mechanism):
        # second bidder stands on his big set; the unopposed singleton doubles
        # his utility (1 -> 2)
        profile = (Declaration(D, 6), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))
        model = make_agent(1, cycle_types[1], BestResponder(), cycle_mechanism)
        assert cycle_mechanism.expected_utility(1, profile[1], profile, cycle_types[1]) == 1
        new = best_response(model, profile, cycle_mechanism)
        assert new == Declaration(A, 2)
        assert cycle_mechanism.expected_utility(1, new, profile, cycle_types[1]) == 2

    def test_switch_to_pair_over_conflicted_singleton(self, cycle_types, cycle_mechanism):
        profile = (Declaration(D, 6), Declaration(A, 2), Declaration(C, 4), Declaration(D, 5))
        model = make_agent(0, cycle_types[0], BestResponder(), cycle_mechanism)
        assert cycle_mechanism.expected_utility(0, profile[0], profile, cycle_types[0]) == 1
        new = best_response(model, profile, cycle_mechanism)
        assert new == Declaration(A | B, 4)
        assert cycle_mechanism.expected_utility(0, new, profile, cycle_types[0]) == 2

    def test_keeps_empty_when_nothing_improves(self, cycle_mechanism):
        blocked = Valuation([(C, 3)])
        model = make_agent(1, blocked, BestResponder(), cycle_mechanism)
        profile = (Declaration(C, 9), EMPTY)
        assert best_response(model, profile, cycle_mechanism) is EMPTY

    def test_never_decreases_utility(self, cycle_mechanism):
        rng = seeded_rng(3, "br-improves")
        for _ in range(300):
            types = random_types(rng, 4, 4, max_atoms=2, max_value=12, max_size=2)
            models = [make_agent(i, t, BestResponder(), cycle_mechanism) for i, t in enumerate(types)]
            from auctionlab.generate import truthful_profile

            profile = truthful_profile(rng, types)
            for model in models:
                i = model.index
                before = cycle_mechanism.expected_utility(i, profile[i], profile, types[i])
                new = best_response(model, profile, cycle_mechanism)
                after = cycle_mechanism.expected_utility(i, new, profile, types[i])
                assert after >= before


class TestCounterfactualUtilities:
    def test_cycle_state_vector(self, cycle_types, cycle_mechanism):
        profile = (Declaration(D, 6), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))
        model = make_agent(1, cycle_types[1], BestResponder(), cycle_mechanism)
        utilities = dict(zip(model.candidates, counterfactual_utilities(model, profile, cycle_mechanism)))
        assert utilities[0] == 0
        assert utilities[A] == 2
        assert utilities[B | C] == 1

    def test_sole_bidder_gets_full_value_everywhere(self, cycle_types, cycle_mechanism):
        profile = (EMPTY, EMPTY, EMPTY, EMPTY)
        model = make_agent(0, cycle_types[0], BestResponder(), cycle_mechanism)
        utilities = dict(zip(model.candidates, counterfactual_utilities(model, profile, cycle_mechanism)))
        assert utilities[A | B] == 4
        assert utilities[D] == 6

    def test_priced_out_candidate_is_zero(self, cycle_types, cycle_mechanism):
        profile = (EMPTY, EMPTY, EMPTY, Declaration(D, 9))
        model = make_agent(0, cycle_types[0], BestResponder(), cycle_mechanism)
        utilities = dict(zip(model.candidates, counterfactual_utilities(model, profile, cycle_mechanism)))
        assert utilities[D] == 0


class TestCandidates:
    def test_atoms_plus_empty_in_bundle_order(self, cycle_types, cycle_mechanism):
        model = make_agent(0, cycle_types[0], BestResponder(), cycle_mechanism)
        assert model.candidates == (0, D, A | B)

    def test_grand_bundle_added_under_grand_mechanism(self, cycle_types):
        mech = GrandBundleMechanism(4, Fraction(1, 100))
        model = make_agent(0, cycle_types[0], BestResponder(), mech)
        assert full_mask(4) in model.candidates

    def test_emitted_bids_are_undominated(self, cycle_types):
        mech = GrandBundleMechanism(4, Fraction(1, 100))
        model = make_agent(0, cycle_types[0], BestResponder(), mech)
        for mask, bid in zip(model.candidates, model.candidate_bids):
            if mask and cycle_types[0].value_of(mask):
                assert bid == Declaration(mask, cycle_types[0].value_of(mask))


class TestByzantine:
    def test_never_overbids(self, cycle_types):
        rng = seeded_rng(5, "byz")
        model = make_agent(0, cycle_types[0], ByzantineBidder())
        for _ in range(500):
            d = byzantine_bid(model, rng)
            if not d.is_empty:
                assert d.bid <= cycle_types[0].value_of(d.set_mask)

    def test_worthless_agent_stays_out(self):
        model = make_agent(0, Valuation(), ByzantineBidder())
        rng = seeded_rng(5, "byz-empty")
        assert all(byzantine_bid(model, rng) is EMPTY for _ in range(20))

    def test_seeded_reproducibility(self, cycle_types):
        model = make_agent(0, cycle_types[0], ByzantineBidder())
        first = [byzantine_bid(model, seeded_rng(9, "byz-seq")) for _ in range(1)]
        runs = []
        for _ in range(2):
            rng = seeded_rng(9, "byz-seq")
            runs.append([byzantine_bid(model, rng) for _ in range(50)])
        assert runs[0] == runs[1]


def reference_byzantine_bid(model, rng):
    """`byzantine_bid` as first written: the draws the faster one must repeat."""
    masks = [c for c in model.candidates if c]
    if not masks:
        return EMPTY
    mask = masks[rng.randrange(len(masks))]
    ceiling = model.valuation.value_of(mask)
    bid = rng.randint(0, ceiling)
    if bid == 0:
        return EMPTY
    return Declaration(mask, bid)


class TestByzantineMatchesReference:
    def models(self, cycle_types):
        yield from (make_agent(i, t, ByzantineBidder()) for i, t in enumerate(cycle_types))
        types = random_types(seeded_rng(3, "byz-ref"), 6, 8, max_atoms=4, max_value=40, max_size=3)
        mech = GrandBundleMechanism(8, Fraction(1, 4))
        yield from (make_agent(i, t, ByzantineBidder(), mech) for i, t in enumerate(types))
        # staying out is the only candidate
        yield make_agent(0, Valuation(), ByzantineBidder())
        # a candidate set worth 0, whose undominated bid is EMPTY
        valuation = Valuation([(A, 3)])
        cands = (0, A, B | C)
        yield AgentModel(0, valuation, ByzantineBidder(), cands,
                         tuple(undominated_bid(valuation, c) for c in cands))

    def test_same_declarations_and_draws(self, cycle_types):
        for m, model in enumerate(self.models(cycle_types)):
            fast, slow = random.Random(m), random.Random(m)
            for _ in range(300):
                got, want = byzantine_bid(model, fast), reference_byzantine_bid(model, slow)
                assert got == want
                assert (got is EMPTY) == (want is EMPTY)
                assert fast.getstate() == slow.getstate()

    def test_zero_bid_is_the_empty_constant(self, cycle_types):
        model = make_agent(0, cycle_types[0], ByzantineBidder())
        rng = seeded_rng(5, "byz-zero")
        zeros = [d for d in (byzantine_bid(model, rng) for _ in range(200)) if d.bid == 0]
        assert zeros and all(d is EMPTY for d in zeros)


class TestWeightedLearner:
    def test_first_round_is_uniform(self):
        state = WeightedLearnerState(4, u_max=10)
        rng = seeded_rng(11, "mw-uniform")
        counts = [0] * 4
        for _ in range(20_000):
            counts[state.choose(rng)] += 1
        for c in counts:
            assert abs(c / 20_000 - 0.25) < 0.02

    def test_dominant_candidate_takes_over(self):
        state = WeightedLearnerState(3, u_max=10)
        rng = seeded_rng(13, "mw-dominant")
        window_freqs = []
        for window in range(6):
            hits = 0
            for _ in range(300):
                k = state.choose(rng)
                hits += k == 1
                state.update(state.feedback([0, 10, 0]))
            window_freqs.append(hits / 300)
        assert window_freqs[-1] > 0.95
        assert all(b >= a - 0.05 for a, b in zip(window_freqs, window_freqs[1:]))

    def test_zero_rate_freezes_weights(self):
        state = WeightedLearnerState(3, u_max=0)
        for _ in range(50):
            state.update(state.feedback([0, 10, 3]))
        assert state.weights == [1.0, 1.0, 1.0]
        assert state.rounds == 50

    def test_total_is_added_left_to_right(self):
        # 1e16 + 1.0 rounds back to 1e16, so the total is 1e16 and the top
        # draw lands in candidate 0.  A compensated sum (Python 3.12's
        # `sum()`) reads 1e16 + 2, and that total picks candidate 2.
        class TopDraw:
            def random(self):
                return 1 - 2**-53

        state = WeightedLearnerState(3, u_max=1)
        state.weights = [1e16, 1.0, 1.0]
        assert state.choose(TopDraw()) == 0

    def test_weights_stay_positive_and_finite(self):
        state = WeightedLearnerState(2, u_max=1)
        for _ in range(5000):
            state.update(state.feedback([1, 0]))
        assert all(w > 0 and w != float("inf") for w in state.weights)


class ReferenceWeightedLearnerState:
    """`WeightedLearnerState` as first written, counting renormalisations:
    the faster class must give the same weights and picks, float for float."""

    def __init__(self, n_candidates, u_max):
        self.weights = [1.0] * n_candidates
        self.cumulative = [0] * n_candidates
        self.rounds = 0
        self.u_max = u_max
        self.renormalised = 0

    def _rate(self, t):
        k = len(self.weights)
        if k < 2:
            return 0.0
        return math.sqrt(8.0 * math.log(k) / t)

    def choose(self, rng):
        total = sum(self.weights)
        pick = rng.random() * total
        acc = 0.0
        for k, w in enumerate(self.weights):
            acc += w
            if pick < acc:
                return k
        return len(self.weights) - 1

    def update(self, utilities):
        self.rounds += 1
        eta = self._rate(self.rounds)
        scale = self.u_max
        for k, u in enumerate(utilities):
            self.cumulative[k] += u
            if u and eta and scale:
                self.weights[k] *= math.exp(eta * float(u) / scale)
        top = max(self.weights)
        if top > 1e250:
            self.weights = [w / top for w in self.weights]
            self.renormalised += 1


class TestWeightedLearnerMatchesReference:
    @staticmethod
    def ints(rng, k, u_max):
        # mostly zeros, as a losing or empty candidate earns nothing
        return [rng.randint(-u_max, u_max) if rng.random() < 0.4 else 0 for _ in range(k)]

    @staticmethod
    def gains(rng, k, u_max):
        return [rng.randint(0, u_max) for _ in range(k)]

    @staticmethod
    def fractions(rng, k, u_max):
        return [Fraction(rng.randint(-4 * u_max, 4 * u_max), rng.randint(1, 4)) for _ in range(k)]

    @pytest.mark.parametrize(
        "k, u_max, draw, rounds, renormalises",
        [
            (5, 24, "ints", 2000, False),
            (4, 24, "fractions", 2000, False),
            (1, 10, "ints", 300, False),
            (4, 0, "ints", 300, False),
            (3, 1, "gains", 40_000, True),
        ],
        ids=["ints", "fractions", "k1", "u-max-0", "renormalise"],
    )
    def test_same_weights_and_picks(self, k, u_max, draw, rounds, renormalises):
        fast = WeightedLearnerState(k, u_max)
        slow = ReferenceWeightedLearnerState(k, u_max)
        rng_fast, rng_slow = seeded_rng(53, "mw-ref"), seeded_rng(53, "mw-ref")
        data = random.Random(k * 1000 + u_max)
        for _ in range(rounds):
            assert fast.choose(rng_fast) == slow.choose(rng_slow)
            utilities = getattr(self, draw)(data, k, u_max)
            fast.update(fast.feedback(utilities))
            slow.update(utilities)
            assert fast.weights == slow.weights
        assert (slow.renormalised > 0) == renormalises


class TestPerturbedLearner:
    def test_zero_spread_picks_first_candidate(self):
        state = PerturbedLearnerState(3, u_max=0)
        rng = seeded_rng(17, "fpl-zero")
        assert state.choose(rng) == 0

    def test_large_lead_dominates_perturbation(self):
        state = PerturbedLearnerState(2, u_max=4)
        state.cumulative = [0, 1000]
        state.rounds = 4  # spread = ceil(sqrt(5)) * 4 = 12 << lead
        rng = seeded_rng(19, "fpl-lead")
        assert all(state.choose(rng) == 1 for _ in range(100))

    def test_learner_state_factory(self, cycle_types):
        mw = make_agent(0, cycle_types[0], WeightedLearner())
        fpl = make_agent(0, cycle_types[0], PerturbedLearner())
        assert isinstance(learner_state_for(mw), WeightedLearnerState)
        assert isinstance(learner_state_for(fpl), PerturbedLearnerState)
        assert learner_state_for(make_agent(0, cycle_types[0], ByzantineBidder())) is None

    def test_regret_vanishes_on_toy_run(self, cycle_types, cycle_mechanism):
        agents = [
            make_agent(i, t, PerturbedLearner(), cycle_mechanism)
            for i, t in enumerate(cycle_types)
        ]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=10_000, seed=23)
        trace = run_regret_dynamics(cfg)
        for model in agents:
            regret = external_regret(trace.history_for(model.index), model, cycle_mechanism)
            # bounded by max value over sqrt(T), with head room for constants
            assert regret <= Fraction(3 * model.valuation.max_value, 100)


class TestExternalRegret:
    def test_playing_hindsight_best_gives_zero(self, cycle_types, cycle_mechanism):
        model = make_agent(0, cycle_types[0], BestResponder(), cycle_mechanism)
        others = (EMPTY, EMPTY, EMPTY, Declaration(D, 9))
        own = Declaration(A | B, 4)  # utility 4, the best available here
        history = Counter({(own, (own,) + others[1:]): 5})
        assert external_regret(history, model, cycle_mechanism) == 0

    def test_single_round_worst_pick(self, cycle_mechanism):
        v = Valuation([(A, 5), (C, 5)])
        model = make_agent(0, v, BestResponder(), cycle_mechanism)
        blockers = (EMPTY, Declaration(A, 9), EMPTY, EMPTY)
        own = Declaration(A, 5)  # blocked: utility 0; bidding C would earn 5
        history = Counter([(own, (own,) + blockers[1:])])
        assert external_regret(history, model, cycle_mechanism) == 5

    def test_regret_can_be_negative(self, cycle_mechanism):
        # the realized sequence adapts while every fixed candidate is blocked
        # in one of the two rounds
        v = Valuation([(A, 5), (C, 5)])
        model = make_agent(0, v, BestResponder(), cycle_mechanism)
        round1 = (Declaration(A, 5), Declaration(C, 9), EMPTY, EMPTY)
        round2 = (Declaration(C, 5), Declaration(A, 9), EMPTY, EMPTY)
        history = Counter([(round1[0], round1), (round2[0], round2)])
        assert external_regret(history, model, cycle_mechanism) < 0

    def test_mw_regret_shrinks_with_horizon(self, cycle_types, cycle_mechanism):
        def median_regret(rounds):
            values = []
            for seed in range(5):
                agents = [
                    make_agent(i, t, WeightedLearner(), cycle_mechanism)
                    for i, t in enumerate(cycle_types)
                ]
                cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=rounds, seed=seed)
                trace = run_regret_dynamics(cfg)
                worst = max(
                    external_regret(trace.history_for(a.index), a, cycle_mechanism)
                    for a in agents
                )
                values.append(worst)
            return sorted(values)[2]

        series = [median_regret(t) for t in (100, 1000, 10_000)]
        assert series[0] >= series[1] >= series[2]


class TestPressuredOrCommitted:
    def test_unpressured_target_forces_half_value_bid(self):
        # whenever the opposition on an agent's target bundle is below half
        # its value, his best response commits at least half that value
        s = 2
        rng_outer = seeded_rng(29, "pressure")
        checked = 0
        for seed in range(25):
            types = random_types(rng_outer, 5, 8, max_atoms=3, max_value=24, max_size=2)
            mech = FilteredGreedyMechanism(8, s)
            agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
            trace = run_best_response_dynamics(
                RunConfig(mechanism=mech, agents=agents, rounds=60, seed=seed)
            )
            target, _ = optimal_welfare(types, s)
            for record in trace.records[::6]:
                for model in agents:
                    i = model.index
                    goal = types[i].value_of(target[i])
                    if goal == 0:
                        continue
                    pressure = sum(
                        d.bid
                        for j, d in enumerate(record.profile)
                        if j != i and d.set_mask & target[i]
                    )
                    if 2 * pressure < goal:
                        checked += 1
                        response = best_response(model, record.profile, mech)
                        assert 2 * response.bid >= goal
        assert checked > 200

    def test_low_outside_welfare_forces_half_grand_bid(self):
        # when the mechanism without the agent earns less than a quarter of
        # his grand-bundle value, his best response bids at least half of it
        rng_outer = seeded_rng(31, "grand-forcing")
        checked = 0
        for seed in range(30):
            types = random_types(
                rng_outer, 5, 9, max_atoms=2, max_value=32, max_size=3,
                grand_prob=0.35, grand_max_value=64,
            )
            mech = GrandBundleMechanism(9, Fraction(1, 100))
            agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
            trace = run_best_response_dynamics(
                RunConfig(mechanism=mech, agents=agents, rounds=50, seed=seed)
            )
            grand = full_mask(9)
            for record in trace.records[::5]:
                for model in agents:
                    i = model.index
                    value = types[i].value_of(grand)
                    if value == 0:
                        continue
                    without = tuple(EMPTY if j == i else d for j, d in enumerate(record.profile))
                    out = mech.outcome(without, COIN_NONE)
                    outside = declared_welfare(out.allocation, without)
                    if 4 * outside < value:
                        checked += 1
                        response = best_response(model, record.profile, mech)
                        assert 2 * response.bid >= value
        assert checked > 20
