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
    ValidationError,
    Valuation,
    WeightedLearner,
    make_agent,
    separated_flags,
)
from auctionlab import dynamics
from auctionlab.agents import best_response, byzantine_bid, counterfactual_utilities, learner_state_for
from auctionlab.dynamics import (
    ALL_AGENTS,
    RoundRecord,
    RunConfig,
    Trace,
    constant_tail_start,
    detect_cycle,
    run_best_response_dynamics,
    run_regret_dynamics,
    seeded_rng,
)
from auctionlab.generate import random_types
from auctionlab.mechanisms import COIN_NONE, Coin

from conftest import A, B, C, D


def best_response_agents(types, mechanism):
    return [make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types)]


STATE_1 = (Declaration(D, 6), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))
STATE_2 = (Declaration(D, 6), Declaration(A, 2), Declaration(C, 4), Declaration(D, 5))
STATE_3 = (Declaration(A | B, 4), Declaration(A, 2), Declaration(C, 4), Declaration(D, 5))
STATE_4 = (Declaration(A | B, 4), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))


class TestScriptedCycle:
    def test_warmup_order_reaches_two_winner_state(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(
            mechanism=cycle_mechanism, agents=agents, rounds=5, seed=0,
            scripted_order=[2, 3, 0, 1, 0],
        )
        trace = run_best_response_dynamics(cfg)
        assert trace.records[-1].profile == STATE_1

    def test_alternation_returns_to_start(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(
            mechanism=cycle_mechanism, agents=agents, rounds=4, seed=0,
            initial_profile=STATE_1, scripted_order=[1, 0, 1, 0],
        )
        trace = run_best_response_dynamics(cfg)
        assert [r.profile for r in trace.records] == [STATE_2, STATE_3, STATE_4, STATE_1]

    def test_full_run_cycles_with_period_four(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        order = [2, 3, 0, 1, 0] + [1, 0] * 4
        cfg = RunConfig(
            mechanism=cycle_mechanism, agents=agents, rounds=len(order), seed=0,
            scripted_order=order,
        )
        trace = run_best_response_dynamics(cfg)
        assert detect_cycle(trace) == (4, 4)

    def test_single_updater_order(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types[:2], cycle_mechanism)
        cfg = RunConfig(
            mechanism=cycle_mechanism, agents=agents, rounds=6, seed=0, scripted_order=[0]
        )
        trace = run_best_response_dynamics(cfg)
        assert all(r.updater == 0 for r in trace.records)
        assert all(r.profile[1] is EMPTY for r in trace.records)

    def test_empty_order_rejected(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        with pytest.raises(ValidationError):
            RunConfig(
                mechanism=cycle_mechanism, agents=agents, rounds=3, seed=0, scripted_order=[]
            )


def synthetic_trace(profiles, mechanism, agents):
    records = tuple(
        RoundRecord(t + 1, 0, p, COIN_NONE, mechanism.outcome(p), 0, 0)
        for t, p in enumerate(profiles)
    )
    return Trace(mechanism, tuple(agents), records)


class TestCycleDetection:
    def test_constant_tail_is_period_one(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        profiles = [STATE_1] * 6
        trace = synthetic_trace(profiles, cycle_mechanism, agents)
        assert detect_cycle(trace) == (1, 1)
        assert constant_tail_start(trace) == 1

    def test_novel_profiles_every_round(self, cycle_mechanism):
        agents = best_response_agents([Valuation([(A, k)]) for k in range(1, 7)], cycle_mechanism)
        profiles = []
        for k in range(1, 7):
            decls = [EMPTY] * 6
            decls[k - 1] = Declaration(A, k)
            profiles.append(tuple(decls))
        trace = synthetic_trace(profiles, cycle_mechanism, agents)
        assert detect_cycle(trace) is None
        assert constant_tail_start(trace) == 6


class TestBestResponseEngine:
    def test_single_agent_converges_immediately(self, cycle_types, cycle_mechanism):
        agents = best_response_agents([cycle_types[0]], cycle_mechanism)
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=10, seed=7)
        trace = run_best_response_dynamics(cfg)
        assert trace.records[0].profile == (Declaration(D, 6),)
        assert constant_tail_start(trace) == 1

    def test_deterministic_given_seed(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=200, seed=13)
        first = run_best_response_dynamics(cfg)
        second = run_best_response_dynamics(cfg)
        assert first.records == second.records

    def test_one_step_change_invariant(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=300, seed=17)
        trace = run_best_response_dynamics(cfg)
        previous = (EMPTY,) * 4
        for record in trace.records:
            changed = sum(1 for a, b in zip(previous, record.profile) if a != b)
            assert changed <= 1
            previous = record.profile

    def test_recorded_outcomes_revalidate(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=100, seed=19)
        trace = run_best_response_dynamics(cfg)
        for record in trace.records:
            assert cycle_mechanism.outcome(record.profile, record.coin) == record.outcome

    def test_filtered_runs_stay_separated_from_empty_start(self):
        rng = seeded_rng(23, "sep-runs")
        for seed in range(6):
            types = random_types(rng, 5, 8, max_atoms=3, max_value=24, max_size=2)
            mech = FilteredGreedyMechanism(8, 2)
            agents = best_response_agents(types, mech)
            cfg = RunConfig(mechanism=mech, agents=agents, rounds=400, seed=seed)
            trace = run_best_response_dynamics(cfg)
            for record in trace.records:
                assert all(separated_flags(record.profile, types))

    def test_byzantine_updates_draw_from_policy(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types[:3], cycle_mechanism)
        agents.append(make_agent(3, cycle_types[3], ByzantineBidder(), cycle_mechanism))
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=300, seed=29)
        trace = run_best_response_dynamics(cfg)
        for record in trace.records:
            d = record.profile[3]
            if not d.is_empty:
                assert d.bid <= cycle_types[3].value_of(d.set_mask)

    def test_zero_rounds_rejected(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        with pytest.raises(ValidationError):
            RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=0)

    def test_no_agents_degenerate_run(self, cycle_mechanism):
        cfg = RunConfig(mechanism=cycle_mechanism, agents=[], rounds=3, seed=1)
        trace = run_best_response_dynamics(cfg)
        assert all(r.true_welfare == 0 for r in trace.records)


class TestRandomStartWithLottery:
    def test_random_start_requires_lottery_on_filtered_mechanism(self, cycle_types):
        mech = FilteredGreedyMechanism(4, 2)
        agents = best_response_agents(cycle_types, mech)
        with pytest.raises(ValidationError):
            RunConfig(mechanism=mech, agents=agents, rounds=10, empty_start=False)

    def test_separation_holds_once_everyone_updated(self):
        rng = seeded_rng(31, "lottery-warmup")
        for seed in range(5):
            types = random_types(rng, 5, 8, max_atoms=3, max_value=24, max_size=2)
            mech = FilteredGreedyMechanism(8, 2, lottery=Fraction(1, 16))
            agents = best_response_agents(types, mech)
            cfg = RunConfig(
                mechanism=mech, agents=agents, rounds=300, seed=seed,
                empty_start=False, keep_on_tie=False,
            )
            trace = run_best_response_dynamics(cfg)
            seen = set()
            warmed = None
            for record in trace.records:
                seen.add(record.updater)
                if warmed is None and len(seen) == 5:
                    warmed = record.round
                if warmed is not None and record.round > warmed:
                    assert all(separated_flags(record.profile, types)), record.round
            assert warmed is not None


class TestRegretEngine:
    def test_lottery_coins_follow_the_coin_stream(self):
        lottery = Fraction(1, 16)
        types = random_types(seeded_rng(59, "lottery-coins"), 5, 8, max_atoms=3, max_value=24, max_size=2)
        mech = FilteredGreedyMechanism(8, 2, lottery=lottery)
        agents = [make_agent(i, t, WeightedLearner(), mech) for i, t in enumerate(types)]
        cfg = RunConfig(mechanism=mech, agents=agents, rounds=800, seed=13)
        coins = [r.coin for r in run_regret_dynamics(cfg).records]
        # the coin draw as first written: one float per round, a fresh coin
        rng = seeded_rng(cfg.seed, "coin")
        expected = [
            Coin(lottery_agent=rng.randrange(5)) if rng.random() < float(lottery) else COIN_NONE
            for _ in range(cfg.rounds)
        ]
        assert coins == expected
        assert sum(c.lottery_agent is not None for c in coins) > 20

    def test_round_one_choices_uniform_over_seeds(self, cycle_types, cycle_mechanism):
        counts = {}
        for seed in range(400):
            agents = [
                make_agent(i, t, WeightedLearner(), cycle_mechanism)
                for i, t in enumerate(cycle_types)
            ]
            cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=1, seed=seed)
            trace = run_regret_dynamics(cfg)
            choice = trace.records[0].profile[0]
            counts[choice] = counts.get(choice, 0) + 1
        # first bidder has three candidates; each should appear roughly 1/3
        assert len(counts) == 3
        for c in counts.values():
            assert 400 / 3 * 0.6 < c < 400 / 3 * 1.4

    def test_single_agent_converges_to_best_atom(self, cycle_types, cycle_mechanism):
        agents = [make_agent(0, cycle_types[0], WeightedLearner(), cycle_mechanism)]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=3000, seed=3)
        trace = run_regret_dynamics(cfg)
        tail = trace.records[-500:]
        avg = sum(r.true_welfare for r in tail) / len(tail)
        assert avg >= 0.95 * 6

    def test_updater_marker_is_all(self, cycle_types, cycle_mechanism):
        agents = [
            make_agent(i, t, WeightedLearner(), cycle_mechanism)
            for i, t in enumerate(cycle_types)
        ]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=5, seed=5)
        trace = run_regret_dynamics(cfg)
        assert all(r.updater == ALL_AGENTS for r in trace.records)

    def test_best_responders_rejected(self, cycle_types, cycle_mechanism):
        agents = best_response_agents(cycle_types, cycle_mechanism)
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=5, seed=5)
        with pytest.raises(ValidationError):
            run_regret_dynamics(cfg)

    def test_deterministic_given_seed(self, cycle_types, cycle_mechanism):
        def run():
            agents = [
                make_agent(i, t, WeightedLearner(), cycle_mechanism)
                for i, t in enumerate(cycle_types)
            ]
            cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=300, seed=37)
            return run_regret_dynamics(cfg).records

        assert run() == run()

    def test_learner_declarations_are_undominated(self, cycle_types, cycle_mechanism):
        agents = [
            make_agent(i, t, WeightedLearner(), cycle_mechanism)
            for i, t in enumerate(cycle_types)
        ]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=200, seed=41)
        trace = run_regret_dynamics(cfg)
        for record in trace.records:
            for i, d in enumerate(record.profile):
                if not d.is_empty:
                    assert d.bid == cycle_types[i].value_of(d.set_mask)


class TestStateCache:
    """Both engines cache per-state results.  Every record must equal what a
    direct, uncached recomputation of its round gives, also when the cache
    is emptied at almost every new state."""

    @staticmethod
    def assert_round(config, record):
        expected = dynamics._round_result(config.mechanism, record.profile, record.coin, config.agents)
        assert (record.outcome, record.declared_welfare, record.true_welfare) == expected

    @pytest.mark.parametrize("limit", [dynamics.STATE_CACHE_LIMIT, 1])
    def test_best_response_records_match_recomputation(self, limit, monkeypatch):
        monkeypatch.setattr(dynamics, "STATE_CACHE_LIMIT", limit)
        types = random_types(seeded_rng(43, "cache-br"), 5, 8, max_atoms=3, max_value=24, max_size=2)
        mech = FilteredGreedyMechanism(8, 2, lottery=Fraction(1, 16))
        agents = best_response_agents(types[:4], mech)
        agents.append(make_agent(4, types[4], ByzantineBidder(), mech))
        cfg = RunConfig(mechanism=mech, agents=agents, rounds=600, seed=7, empty_start=False)
        previous = dynamics._starting_profile(cfg)
        for record in run_best_response_dynamics(cfg).records:
            updater, model = record.updater, agents[record.updater]
            if not isinstance(model.behavior, ByzantineBidder):
                assert record.profile[updater] == best_response(model, previous, mech, cfg.keep_on_tie)
            assert [d for j, d in enumerate(record.profile) if j != updater] == [
                d for j, d in enumerate(previous) if j != updater
            ]
            self.assert_round(cfg, record)
            previous = record.profile

    @pytest.mark.parametrize("limit", [dynamics.STATE_CACHE_LIMIT, 1])
    @pytest.mark.parametrize(
        "mech, behavior, grand_prob, fractional",
        [
            (FilteredGreedyMechanism(6, 2), WeightedLearner(), 0.0, False),
            (GrandBundleMechanism(6, Fraction(1, 4), Fraction(1, 16)), WeightedLearner(), 0.5, True),
            (FilteredGreedyMechanism(6, 2, Fraction(1, 16)), PerturbedLearner(), 0.0, True),
        ],
        ids=["mw-greedy", "mw-grand-lottery", "fpl-lottery"],
    )
    def test_regret_records_match_recomputation(
        self, limit, mech, behavior, grand_prob, fractional, monkeypatch
    ):
        monkeypatch.setattr(dynamics, "STATE_CACHE_LIMIT", limit)
        types = random_types(
            seeded_rng(47, "cache-mw"), 4, 6, max_atoms=3, max_value=24, max_size=2,
            grand_prob=grand_prob,
        )
        agents = [make_agent(i, t, behavior, mech) for i, t in enumerate(types[:3])]
        agents.append(make_agent(3, types[3], ByzantineBidder(), mech))
        cfg = RunConfig(mechanism=mech, agents=agents, rounds=600, seed=11)
        # replay the run without caches: same streams, fresh learner states fed
        # the dense utilities through the same conversion
        rngs = [seeded_rng(cfg.seed, "agent", i) for i in range(len(agents))]
        learners = {i: learner_state_for(agents[i]) for i in range(3)}
        seen_fraction = False
        for record in run_regret_dynamics(cfg).records:
            expected = [
                agents[i].candidate_bids[learners[i].choose(rngs[i])] if i in learners
                else byzantine_bid(agents[i], rngs[i])
                for i in range(len(agents))
            ]
            assert list(record.profile) == expected
            for i, state in learners.items():
                utilities = counterfactual_utilities(agents[i], record.profile, mech)
                seen_fraction = seen_fraction or any(Fraction(u).denominator > 1 for u in utilities)
                state.update(state.feedback(utilities))
            self.assert_round(cfg, record)
        assert seen_fraction == fractional
