from fractions import Fraction

import pytest

from auctionlab import (
    EMPTY,
    BestResponder,
    Declaration,
    WeightedLearner,
    declared_welfare,
    aggregate,
    coverage_report,
    external_regret,
    make_agent,
    optimal_welfare,
    regret_report,
    resilience_report,
    welfare_report,
)
from auctionlab.dynamics import RunConfig, Step, Trace, run_best_response_dynamics, seeded_rng
from auctionlab.mechanisms import COIN_NONE
from auctionlab.metrics import InstanceMismatchError

from conftest import A, B, C, D


def fixed_trace(profiles, mechanism, agents, types):
    from auctionlab.core import social_welfare

    steps = []
    for p in profiles:
        out = mechanism.outcome(p)
        steps.append(
            Step(p, COIN_NONE, out, declared_welfare(out.allocation, p),
                 social_welfare(out.allocation, types))
        )
    return Trace(mechanism, agents, steps, range(len(steps)), [0] * len(steps))


def hindsight_target_check(trace, types, target_alloc, model):
    """The hindsight-target inequality for one agent: the average of (value
    won + critical price of its target bundle) covers the target value up to
    the agent's external regret.  Returns (pass, slack)."""
    i = model.index
    target = target_alloc[i]
    total = Fraction(0)
    for record in trace.records:
        total += types[i].value_of(record.outcome.allocation[i])
        if target:
            total += trace.mechanism.critical_price(i, target, record.profile, record.coin)[0]
    lhs = total / trace.rounds
    regret = external_regret(trace.history_for(i), model, trace.mechanism)
    rhs = types[i].value_of(target) - regret
    return lhs >= rhs, lhs - rhs


@pytest.fixture
def cycle_agents(cycle_types, cycle_mechanism):
    return [make_agent(i, t, BestResponder(), cycle_mechanism) for i, t in enumerate(cycle_types)]


class TestWelfareReport:
    def test_optimum_every_round_gives_ratio_one(self, cycle_types, cycle_mechanism, cycle_agents):
        optimal_profile = (
            Declaration(A | B, 4), EMPTY, Declaration(C, 4), Declaration(D, 5),
        )
        trace = fixed_trace([optimal_profile] * 4, cycle_mechanism, cycle_agents, cycle_types)
        report = welfare_report(trace, cycle_types, 13)
        assert report.ratio == 1
        assert report.average == 13

    def test_all_empty_gives_ratio_zero(self, cycle_types, cycle_mechanism, cycle_agents):
        trace = fixed_trace([(EMPTY,) * 4] * 3, cycle_mechanism, cycle_agents, cycle_types)
        report = welfare_report(trace, cycle_types, 13)
        assert report.ratio == 0

    def test_average_recomputes_from_series(self, cycle_types, cycle_mechanism, cycle_agents):
        cfg = RunConfig(mechanism=cycle_mechanism, agents=cycle_agents, rounds=77, seed=5)
        trace = run_best_response_dynamics(cfg)
        report = welfare_report(trace, cycle_types, 13)
        series = [r.true_welfare for r in trace.records]
        assert len(set(series)) > 1  # the average weighs states of differing welfare
        assert report.average == Fraction(sum(series), len(series))

    def test_mismatched_types_rejected(self, cycle_types, cycle_mechanism, cycle_agents):
        trace = fixed_trace([(EMPTY,) * 4], cycle_mechanism, cycle_agents, cycle_types)
        with pytest.raises(InstanceMismatchError):
            welfare_report(trace, cycle_types[:2], 13)

    def test_excess_welfare_rejected(self, cycle_types, cycle_mechanism, cycle_agents):
        profile = (Declaration(D, 6), EMPTY, EMPTY, EMPTY)
        trace = fixed_trace([profile], cycle_mechanism, cycle_agents, cycle_types)
        with pytest.raises(InstanceMismatchError):
            welfare_report(trace, cycle_types, 5)


class TestCoverageReport:
    def test_worthless_target_always_covered(self, cycle_types, cycle_mechanism, cycle_agents):
        trace = fixed_trace([(EMPTY,) * 4] * 3, cycle_mechanism, cycle_agents, cycle_types)
        target = (0, 0, C, D)  # first two agents get nothing in the target
        fractions = coverage_report(trace, cycle_types, target)
        assert fractions[0] == 1
        assert fractions[1] == 1

    def test_truthful_target_bidder_is_covered(self, cycle_types, cycle_mechanism, cycle_agents):
        profile = (Declaration(A | B, 4), EMPTY, EMPTY, EMPTY)
        trace = fixed_trace([profile], cycle_mechanism, cycle_agents, cycle_types)
        target = (A | B, 0, C, D)
        fractions = coverage_report(trace, cycle_types, target)
        assert trace.rounds == 1
        assert fractions[0] == 1

    def test_target_of_the_wrong_length_rejected(self, cycle_types, cycle_mechanism, cycle_agents):
        trace = fixed_trace([(EMPTY,) * 4], cycle_mechanism, cycle_agents, cycle_types)
        with pytest.raises(InstanceMismatchError):
            coverage_report(trace, cycle_types, (0, 0, C))

    def test_matches_direct_reimplementation(self, cycle_types, cycle_mechanism, cycle_agents):
        rng = seeded_rng(43, "coverage-reimpl")
        cfg = RunConfig(mechanism=cycle_mechanism, agents=cycle_agents, rounds=60, seed=9)
        trace = run_best_response_dynamics(cfg)
        target, _ = optimal_welfare(cycle_types, 2)
        fractions = coverage_report(trace, cycle_types, target)
        counts = [0] * 4
        for record in trace.records:
            for i in range(4):
                goal = cycle_types[i].value_of(target[i])
                pressure = sum(
                    d.bid
                    for j, d in enumerate(record.profile)
                    if j != i and d.set_mask & target[i]
                )
                own = 2 * record.profile[i].bid >= goal
                counts[i] += own or 2 * pressure >= goal
        assert any(0 < c < trace.rounds for c in counts)  # coverage varies by round
        assert fractions == tuple(Fraction(c, trace.rounds) for c in counts)


class TestResilience:
    def test_empty_byzantine_set_matches_welfare_report(
        self, cycle_types, cycle_mechanism, cycle_agents
    ):
        cfg = RunConfig(mechanism=cycle_mechanism, agents=cycle_agents, rounds=50, seed=11)
        trace = run_best_response_dynamics(cfg)
        assert resilience_report(trace, cycle_types, frozenset(), 13) == welfare_report(
            trace, cycle_types, 13
        )

    def test_all_byzantine_passes_trivially(self, cycle_types, cycle_mechanism, cycle_agents):
        profile = (Declaration(D, 6), EMPTY, EMPTY, EMPTY)
        trace = fixed_trace([profile], cycle_mechanism, cycle_agents, cycle_types)
        report = resilience_report(trace, cycle_types, frozenset({0, 1, 2, 3}), 0)
        assert report.ratio == 1  # a zero target is met vacuously

    def test_byzantine_index_outside_the_trace_rejected(
        self, cycle_types, cycle_mechanism, cycle_agents
    ):
        trace = fixed_trace([(EMPTY,) * 4], cycle_mechanism, cycle_agents, cycle_types)
        for outside in (4, -1):
            with pytest.raises(InstanceMismatchError):
                resilience_report(trace, cycle_types, frozenset({outside}), 13)

    def test_byzantine_winnings_may_exceed_restricted_optimum(
        self, cycle_types, cycle_mechanism, cycle_agents
    ):
        profile = (Declaration(D, 6), Declaration(B | C, 5), EMPTY, EMPTY)
        trace = fixed_trace([profile], cycle_mechanism, cycle_agents, cycle_types)
        report = resilience_report(trace, cycle_types, frozenset({0}), 9)
        assert report.average == 11
        assert report.ratio > 1


class TestHindsightTargetCheck:
    def test_truthful_winner_has_nonnegative_slack(self, cycle_types, cycle_mechanism, cycle_agents):
        profile = (Declaration(A | B, 4), EMPTY, Declaration(C, 4), Declaration(D, 5))
        trace = fixed_trace([profile] * 6, cycle_mechanism, cycle_agents, cycle_types)
        target, _ = optimal_welfare(cycle_types, 2)
        for model in cycle_agents:
            ok, slack = hindsight_target_check(trace, cycle_types, target, model)
            assert ok
            assert slack >= 0

    def test_single_round_trace(self, cycle_types, cycle_mechanism, cycle_agents):
        profile = (Declaration(D, 6), EMPTY, EMPTY, EMPTY)
        trace = fixed_trace([profile], cycle_mechanism, cycle_agents, cycle_types)
        target, _ = optimal_welfare(cycle_types, 2)
        ok, slack = hindsight_target_check(trace, cycle_types, target, cycle_agents[0])
        assert isinstance(slack, Fraction)
        assert ok

    def test_passes_for_all_agents_on_long_learning_run(self, cycle_types, cycle_mechanism):
        from auctionlab.dynamics import run_regret_dynamics

        agents = [
            make_agent(i, t, WeightedLearner(), cycle_mechanism)
            for i, t in enumerate(cycle_types)
        ]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=20_000, seed=2)
        trace = run_regret_dynamics(cfg)
        target, _ = optimal_welfare(cycle_types, 2)
        for model in agents:
            ok, slack = hindsight_target_check(trace, cycle_types, target, model)
            assert ok, (model.index, slack)


class TestRegretReport:
    def test_matches_external_regret(self, cycle_types, cycle_mechanism):
        from auctionlab.dynamics import run_regret_dynamics

        agents = [
            make_agent(i, t, WeightedLearner(), cycle_mechanism)
            for i, t in enumerate(cycle_types)
        ]
        cfg = RunConfig(mechanism=cycle_mechanism, agents=agents, rounds=150, seed=13)
        trace = run_regret_dynamics(cfg)
        report = regret_report(trace, agents)
        for model in agents:
            assert report[model.index] == external_regret(
                trace.history_for(model.index), model, cycle_mechanism
            )


class TestAggregate:
    def test_stats(self):
        values = [Fraction(1, 4), Fraction(3, 4), Fraction(1, 2), Fraction(1)]
        stats = aggregate(values, Fraction(1, 2))
        assert stats.minimum == Fraction(1, 4)
        assert stats.median == Fraction(1, 2)
        assert stats.pass_fraction == Fraction(3, 4)

    def test_empty(self):
        stats = aggregate([], Fraction(1, 2))
        assert stats.pass_fraction == 0
