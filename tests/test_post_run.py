"""The post-run stages of `auctionlab run` work once per state of the trace:
the CSV export and the separation check, and the welfare, coverage and
regret reports, which weigh each state by `Trace.uses`, its number of
rounds.  `Trace.history_for` counts the rounds per (own declaration,
profile) value, so the hindsight totals work once per distinct value.  A
hand-built trace may hold one state per round, so its states can repeat a
value.  Each stage must give exactly what a plain per-row computation
gives: on every built-in scenario, on a zero-agent trace, and on
hand-built traces whose objects are shared in ways the engines never
produce.  Together the reports count a trace's plays once."""
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from auctionlab import cli
from auctionlab.agents import BestResponder, hindsight_totals, make_agent
from auctionlab.algorithms import greedy_rule
from auctionlab.cli import (
    list_scenarios,
    load_experiment,
    separated_throughout,
    trace_csv,
    welfare_targets,
)
from auctionlab.core import EMPTY, Declaration, Outcome, Valuation, declared_welfare, social_welfare
from auctionlab.dynamics import (
    ALL_AGENTS,
    RunConfig,
    Step,
    Trace,
    run_best_response_dynamics,
    run_regret_dynamics,
)
from auctionlab.mechanisms import COIN_IGNORE_GRAND, COIN_NONE, RuleMechanism, separated_flags
from auctionlab.metrics import coverage_report, regret_report, resilience_report, welfare_report


def reference_csv(trace):
    n = trace.n_agents
    header = ["round", "updater"]
    header += [f"set_{i + 1}" for i in range(n)] + [f"bid_{i + 1}" for i in range(n)]
    header.append("coin")
    header += [f"won_{i + 1}" for i in range(n)] + [f"pay_{i + 1}" for i in range(n)]
    header += ["declared_sw", "true_sw"]
    lines = [",".join(header)]
    for r in trace.records:
        if r.coin.lottery_agent is not None:
            coin = f"lottery:{r.coin.lottery_agent + 1}"
        elif r.coin.ignore_grand:
            coin = "ignore-grand"
        else:
            coin = "-"
        row = [str(r.round), "ALL" if r.updater == ALL_AGENTS else str(r.updater + 1)]
        row += [str(d.set_mask) for d in r.profile] + [str(d.bid) for d in r.profile]
        row.append(coin)
        row += [str(m) for m in r.outcome.allocation] + [str(p) for p in r.outcome.payments]
        row += [str(r.declared_welfare), str(r.true_welfare)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def reference_separated(trace, types):
    return all(all(separated_flags(r.profile, types)) for r in trace.records)


def reference_coverage(trace, types, target_alloc):
    n = trace.n_agents
    matrix = []
    for r in trace.records:
        row = []
        for i in range(n):
            goal = types[i].value_of(target_alloc[i])
            pressure = sum(
                d.bid for j, d in enumerate(r.profile) if j != i and d.set_mask & target_alloc[i]
            )
            row.append(2 * r.profile[i].bid >= goal or 2 * pressure >= goal)
        matrix.append(tuple(row))
    rounds = max(1, trace.rounds)
    return matrix, tuple(Fraction(sum(row[i] for row in matrix), rounds) for i in range(n))


def reference_totals(history, model, mechanism):
    realized = Fraction(0)
    fixed = [Fraction(0)] * len(model.candidate_bids)
    for own, profile in history:
        *utilities, own_utility = mechanism.counterfactual_utilities(
            model.index, model.candidate_bids + (own,), profile, model.valuation
        )
        realized += own_utility
        fixed = [f + u for f, u in zip(fixed, utilities)]
    return realized, fixed


def assert_matches_reference(trace, types, target_alloc):
    assert trace_csv(trace, None) == reference_csv(trace)
    assert separated_throughout(trace, types) == reference_separated(trace, types)
    assert coverage_report(trace, types, target_alloc) == reference_coverage(
        trace, types, target_alloc
    )[1]
    if trace.rounds:
        for model in trace.agents:
            rows = [(r.profile[model.index], r.profile) for r in trace.records]
            history = trace.history_for(model.index)
            assert history == Counter(rows)
            assert hindsight_totals(history, model, trace.mechanism) == reference_totals(
                rows, model, trace.mechanism
            )


@pytest.mark.parametrize("name", list_scenarios())
def test_scenario_post_run_matches_per_row_reference(name):
    experiment = load_experiment(name)
    config = experiment.run_config(seed=3)
    config = replace(config, rounds=min(config.rounds, 400))
    if experiment.dynamics_spec["kind"] == "regret":
        trace = run_regret_dynamics(config)
    else:
        trace = run_best_response_dynamics(config)
    target_alloc, _ = welfare_targets(experiment)
    assert_matches_reference(trace, experiment.instance.types, target_alloc)


def test_zero_agent_trace_has_no_agent_columns():
    mechanism = RuleMechanism(greedy_rule(2), 2)
    trace = run_best_response_dynamics(RunConfig(mechanism=mechanism, agents=[], rounds=3))
    assert trace_csv(trace, None) == "round,updater,coin,declared_sw,true_sw\n" + "".join(
        f"{t},ALL,-,0,0\n" for t in (1, 2, 3)
    )
    assert_matches_reference(trace, [], [])


def test_shared_objects_that_engines_never_produce():
    """One profile object under two coins and outcomes, and one outcome
    object under two profiles with different declared welfare and coverage.
    The only unseparated profile appears after a revisit of a separated
    one, as a freshly built tuple whose outcome object separated profiles
    share before and after it."""
    types = [Valuation([(0b011, 6)]), Valuation([(0b010, 5)])]
    mechanism = RuleMechanism(greedy_rule(2), 2)
    agents = tuple(make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types))
    separated = (Declaration(0b011, 6), EMPTY)
    unseparated = (Declaration(0b011, 1), Declaration(0b010, 2))
    assert all(separated_flags(separated, types))
    assert not all(separated_flags(unseparated, types))
    first, second = Outcome((0b011, 0), (0, 0)), Outcome((0, 0), (0, 0))
    revisit = tuple(list(unseparated))
    assert revisit == unseparated and revisit is not unseparated
    rows = [
        (separated, COIN_NONE, first, 6),
        (separated, COIN_IGNORE_GRAND, second, 0),
        (separated, COIN_NONE, first, 6),
        (revisit, COIN_NONE, first, 1),
        (separated, COIN_NONE, first, 6),
    ]
    steps = [Step(profile, coin, outcome, welfare, welfare)
             for profile, coin, outcome, welfare in rows]
    updaters = [t % 2 for t in range(1, len(steps) + 1)]
    trace = Trace(mechanism, agents, steps, range(len(steps)), updaters)
    assert_matches_reference(trace, types, [0b011, 0b010])
    assert not separated_throughout(trace, types)
    matrix, _ = reference_coverage(trace, types, [0b011, 0b010])
    assert matrix[3] != matrix[0]


def test_equal_but_distinct_objects_are_worked_once(monkeypatch):
    """Steps whose profiles, declarations and outcomes are equal but
    distinct objects give what shared objects give, and the separation
    check and the hindsight totals work once per distinct value, although
    the trace's states repeat those values."""
    types = [Valuation([(0b011, 6)]), Valuation([(0b010, 5)]), Valuation([(0b100, 3)])]
    mechanism = RuleMechanism(greedy_rule(2), 3)
    agents = tuple(make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types))
    states = [
        (((0b011, 6), (0, 0), (0b100, 3)), COIN_NONE, (0b011, 0, 0b100), (0, 0, 0), 9),
        (((0b011, 6), (0b010, 5), (0, 0)), COIN_IGNORE_GRAND, (0b011, 0, 0), (5, 0, 0), 6),
        (((0, 0), (0b010, 5), (0b100, 3)), COIN_NONE, (0, 0b010, 0b100), (0, 0, 0), 8),
    ]
    visits = [0, 1, 1, 0, 2, 0, 1, 2, 2, 0]

    def step(k):
        pairs, coin, allocation, payments, welfare = states[k]
        profile = tuple(Declaration(*p) for p in pairs)
        return Step(profile, coin, Outcome(allocation, payments), welfare, welfare)

    fresh = [step(k) for k in visits]
    built = [step(k) for k in range(len(states))]
    shared = [built[k] for k in visits]
    assert fresh[0].profile == fresh[3].profile and fresh[0].profile is not fresh[3].profile
    assert fresh[0].profile[0] is not fresh[3].profile[0]
    assert fresh[0].outcome == fresh[3].outcome and fresh[0].outcome is not fresh[3].outcome
    assert shared[0].profile is shared[3].profile
    plays, updaters = range(len(visits)), [t % 3 for t in range(1, len(visits) + 1)]
    fresh_trace = Trace(mechanism, agents, fresh, plays, updaters)
    shared_trace = Trace(mechanism, agents, shared, plays, updaters)
    target_alloc = [0b011, 0b010, 0b100]

    assert trace_csv(fresh_trace, None) == trace_csv(shared_trace, None)
    assert separated_throughout(fresh_trace, types) == separated_throughout(shared_trace, types)
    assert separated_throughout(fresh_trace, types)
    assert coverage_report(fresh_trace, types, target_alloc) == coverage_report(
        shared_trace, types, target_alloc
    )
    for model in agents:
        assert hindsight_totals(
            fresh_trace.history_for(model.index), model, mechanism
        ) == hindsight_totals(shared_trace.history_for(model.index), model, mechanism)
    assert_matches_reference(fresh_trace, types, target_alloc)

    flag_calls = Counter()
    flags = cli.separated_flags

    def counted_flags(profile, types):
        flag_calls[profile] += 1
        return flags(profile, types)

    monkeypatch.setattr(cli, "separated_flags", counted_flags)
    assert separated_throughout(fresh_trace, types)
    assert len(flag_calls) == len(states) and set(flag_calls.values()) == {1}

    utility_calls = Counter()
    utilities = mechanism.counterfactual_utilities

    def counted_utilities(agent, decls, profile, valuation):
        utility_calls[agent, decls[-1], profile] += 1
        return utilities(agent, decls, profile, valuation)

    monkeypatch.setattr(mechanism, "counterfactual_utilities", counted_utilities)
    for model in agents:
        hindsight_totals(fresh_trace.history_for(model.index), model, mechanism)
    assert len(utility_calls) == len(agents) * len(states)
    assert set(utility_calls.values()) == {1}


class CountedPlays(tuple):
    """A trace's `plays` that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_reports_iterate_the_plays_once():
    """The welfare, resilience, coverage and regret reports read the rounds
    through `Trace.uses`, which iterates the plays once for all of them."""
    types = [Valuation([(0b011, 6)]), Valuation([(0b010, 5)]), Valuation([(0b100, 3)])]
    mechanism = RuleMechanism(greedy_rule(2), 3)
    agents = tuple(make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types))
    steps = []
    for pairs in (((0b011, 6), (0, 0), (0b100, 3)), ((0b011, 6), (0b010, 5), (0, 0)),
                  ((0, 0), (0b010, 5), (0b100, 3))):
        profile = tuple(Declaration(*p) for p in pairs)
        outcome = mechanism.outcome(profile)
        steps.append(Step(profile, COIN_NONE, outcome, declared_welfare(outcome.allocation, profile),
                          social_welfare(outcome.allocation, types)))
    visits = [0, 1, 1, 0, 2, 0, 1, 2, 2, 0]
    trace = Trace(mechanism, agents, steps, visits, [t % 3 for t in range(1, len(visits) + 1)])
    trace.plays = CountedPlays(visits)
    welfare = welfare_report(trace, types, 9)
    resilience = resilience_report(trace, types, frozenset({0}), 8)
    fractions = coverage_report(trace, types, [0b011, 0b010, 0b100])
    regrets = regret_report(trace, agents).per_agent
    assert trace.plays.iterations == 1
    series = [r.true_welfare for r in trace.records]
    assert welfare.average == resilience.average == Fraction(sum(series), len(series))
    assert fractions == reference_coverage(trace, types, [0b011, 0b010, 0b100])[1]
    for model, regret in zip(agents, regrets):
        rows = [(r.profile[model.index], r.profile) for r in trace.records]
        realized, fixed = reference_totals(rows, model, mechanism)
        assert regret == (max(fixed) - realized) / len(rows)
