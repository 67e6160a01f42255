"""A trace holds one step per round, shared by the rounds that play the same
(state, coin), and `Trace.records` is a view of those steps: built on first
read and kept.  A trace rebuilt from its records reads the same."""
from dataclasses import replace

import pytest

from auctionlab.algorithms import greedy_rule
from auctionlab.cli import load_experiment
from auctionlab.dynamics import (
    RunConfig,
    Trace,
    run_best_response_dynamics,
    run_regret_dynamics,
)
from auctionlab.mechanisms import RuleMechanism


def scenario_trace(name, engine):
    config = load_experiment(name).run_config(seed=3)
    return engine(replace(config, rounds=min(config.rounds, 300)))


TRACES = {
    "best-response": lambda: scenario_trace("random-ca", run_best_response_dynamics),
    "regret": lambda: scenario_trace("byzantine-mix", run_regret_dynamics),
    "agentless": lambda: run_best_response_dynamics(
        RunConfig(mechanism=RuleMechanism(greedy_rule(2), 2), agents=[], rounds=3)
    ),
}


@pytest.mark.parametrize("kind", sorted(TRACES))
def test_records_are_a_kept_view_of_the_steps(kind):
    trace = TRACES[kind]()
    records = trace.records
    assert trace.records is records
    assert len(records) == trace.rounds == len(trace.steps) == len(trace.updaters)
    for t, (record, updater, step) in enumerate(zip(records, trace.updaters, trace.steps), 1):
        assert (record.round, record.updater) == (t, updater)
        assert (record.profile, record.coin, record.outcome,
                record.declared_welfare, record.true_welfare) == step


@pytest.mark.parametrize("kind", sorted(TRACES))
def test_trace_rebuilt_from_records_reads_the_same(kind):
    trace = TRACES[kind]()
    rebuilt = Trace(trace.mechanism, trace.agents, trace.records)
    assert rebuilt.rounds == trace.rounds
    assert rebuilt.profiles() == trace.profiles()
    for i in range(trace.n_agents):
        assert rebuilt.history_for(i) == trace.history_for(i)
    assert rebuilt.steps == trace.steps and rebuilt.updaters == trace.updaters
    assert rebuilt.records == trace.records
    assert rebuilt.records is rebuilt.records


@pytest.mark.parametrize("kind", ["best-response", "regret"])
def test_engines_build_one_step_per_state_and_coin(kind):
    trace = TRACES[kind]()
    distinct = {(step.profile, step.coin) for step in trace.steps}
    assert len({id(step) for step in trace.steps}) == len(distinct) < trace.rounds
