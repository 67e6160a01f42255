"""A trace holds each distinct step once, as one of its `states`, and each
round's index into them in `plays`; `Trace.records` is a view of those: built
on first read and kept.  `Trace.uses` weighs each state by its number of
rounds, and `Trace.history_for` counts the rounds per (own declaration,
profile)."""
from collections import Counter
from dataclasses import replace

import pytest

from auctionlab.agents import ByzantineBidder, make_agent
from auctionlab.algorithms import greedy_rule
from auctionlab.cli import load_experiment
from auctionlab.dynamics import (
    RunConfig,
    run_best_response_dynamics,
    run_regret_dynamics,
    seeded_rng,
)
from auctionlab.generate import random_types
from auctionlab.mechanisms import RuleMechanism


def scenario_trace(name, engine):
    config = load_experiment(name).run_config(seed=3)
    return engine(replace(config, rounds=min(config.rounds, 300)))


def low_reuse_trace():
    """Six byzantine bidders: almost every round plays a new state, so the
    trace holds thousands of states, and they must stay distinct."""
    mechanism = RuleMechanism(greedy_rule(2), 8)
    types = random_types(seeded_rng(5, "lowreuse"), 6, 8, max_atoms=3, max_value=32, max_size=2)
    agents = [make_agent(i, t, ByzantineBidder(), mechanism) for i, t in enumerate(types)]
    return run_best_response_dynamics(
        RunConfig(mechanism=mechanism, agents=agents, rounds=5000, seed=3)
    )


TRACES = {
    "best-response": lambda: scenario_trace("random-ca", run_best_response_dynamics),
    "regret": lambda: scenario_trace("byzantine-mix", run_regret_dynamics),
    "agentless": lambda: run_best_response_dynamics(
        RunConfig(mechanism=RuleMechanism(greedy_rule(2), 2), agents=[], rounds=3)
    ),
    "low-reuse": low_reuse_trace,
}


@pytest.mark.parametrize("kind", sorted(TRACES))
def test_records_are_a_kept_view_of_the_steps(kind):
    trace = TRACES[kind]()
    records = trace.records
    assert trace.records is records
    steps = [trace.states[k] for k in trace.plays]
    assert len(records) == trace.rounds == len(steps) == len(trace.updaters)
    for t, (record, updater, step) in enumerate(zip(records, trace.updaters, steps), 1):
        assert (record.round, record.updater) == (t, updater)
        assert (record.profile, record.coin, record.outcome,
                record.declared_welfare, record.true_welfare) == step


@pytest.mark.parametrize("kind", sorted(TRACES))
def test_engines_build_one_step_per_state_and_coin(kind):
    trace = TRACES[kind]()
    steps = [trace.states[k] for k in trace.plays]
    distinct = {(step.profile, step.coin) for step in steps}
    assert len({id(step) for step in steps}) == len(distinct) < trace.rounds
    assert len(trace.states) == len(distinct) and len(trace.plays) == trace.rounds
    assert all(0 <= k < len(trace.states) for k in trace.plays)
    for record in trace.records:
        assert trace.states[trace.plays[record.round - 1]] == (
            record.profile, record.coin, record.outcome,
            record.declared_welfare, record.true_welfare,
        )
    assert sum(trace.uses) == trace.rounds
    assert trace.uses == tuple(trace.plays.count(k) for k in range(len(trace.states)))
    for i in range(trace.n_agents):
        assert trace.history_for(i) == Counter((r.profile[i], r.profile) for r in trace.records)
    if kind == "agentless":
        assert len(trace.states) == 1
