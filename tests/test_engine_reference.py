"""The best-response engine against its earlier round-by-round form, and
the invariant that lets it reuse a mover's response.

`ref_run_best_response_dynamics` is the engine's earlier body copied
verbatim; only its name carries the `ref_` prefix.  The engine now stops
its round loop once the profile has settled, stores a mover's new bid as
its best response at the profile it moved to, and builds agent streams for
byzantine bidders only; none of that may change a trace.
"""
import random
import sys
from fractions import Fraction
from itertools import cycle, islice

import pytest

from auctionlab import (
    BestResponder,
    ByzantineBidder,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    RuleMechanism,
    full_mask,
    greedy_rule,
    make_agent,
    partition_rule,
    two_tier_rule,
)
from auctionlab import dynamics
from auctionlab.agents import best_response, byzantine_bid
from auctionlab.algorithms import AllocationRule, greedy_allocate, small_cap
from auctionlab.core import draws_below
from auctionlab.dynamics import (
    RunConfig,
    Step,
    Trace,
    _agentless_trace,
    _check_behaviors,
    _round_result,
    _starting_profile,
    run_best_response_dynamics,
    seeded_rng,
)
from auctionlab.generate import random_profile, random_types


# -- the earlier form, verbatim -------------------------------------------


def ref_run_best_response_dynamics(config: RunConfig) -> Trace:
    """One uniformly random agent per round switches to a best response
    (scripted orders override the draw) and the round plays the mechanism's
    coin; each round's updater and coin are drawn before the first round."""
    mechanism = config.mechanism
    agents = config.agents
    n = len(agents)
    _check_behaviors(agents, "best-response")
    if n == 0:
        return _agentless_trace(config)
    rounds = config.rounds
    if config.scripted_order is not None:
        updaters = list(islice(cycle(config.scripted_order), rounds))
    else:
        updaters = draws_below(seeded_rng(config.seed, "order"), n, rounds)
    coins = mechanism.draw_coins(seeded_rng(config.seed, "coin"), n, rounds)
    agent_rngs = [seeded_rng(config.seed, "agent", i) for i in range(n)]

    profile = _starting_profile(config)
    byzantine = [isinstance(model.behavior, ByzantineBidder) for model in agents]
    keep_on_tie = config.keep_on_tie
    # per profile: best responses by updater, state indices by coin
    cache = {profile: ({}, {})}
    responses, by_coin = cache[profile]
    states, plays = [], []
    play = plays.append
    for updater, coin in zip(updaters, coins):
        if byzantine[updater]:
            new_decl = byzantine_bid(agents[updater], agent_rngs[updater])
        else:
            new_decl = responses.get(updater)
            if new_decl is None:
                new_decl = responses[updater] = best_response(
                    agents[updater], profile, mechanism, keep_on_tie
                )
        if new_decl != profile[updater]:
            profile = profile[:updater] + (new_decl,) + profile[updater + 1 :]
            entry = cache.get(profile)
            if entry is None:
                entry = cache[profile] = ({}, {})
            responses, by_coin = entry
        k = by_coin.get(coin)
        if k is None:
            k = by_coin[coin] = len(states)
            states.append(Step(profile, coin, *_round_result(mechanism, profile, coin, agents)))
        play(k)
    return Trace(mechanism, agents, states, plays, updaters)


# -- seeded configs ---------------------------------------------------------

KINDS = ("greedy", "partition", "two-tier", "filtered", "filtered-lottery", "grand",
         "grand-lottery")


def random_mechanism(rng, kind, m):
    """A mechanism of `kind` on `m` items and the largest set its bidders want."""
    if kind == "greedy":
        return RuleMechanism(greedy_rule(rng.choice([None, 1, 2, 3])), m), 3
    if kind == "partition":
        side_a = rng.randrange(full_mask(m) + 1)
        return RuleMechanism(partition_rule(m, side_a, rng.choice([None, 1, 2, 3])), m), m
    if kind == "two-tier":
        return RuleMechanism(two_tier_rule(m), m), small_cap(m)
    lottery = Fraction(1, 16) if kind.endswith("lottery") else None
    if kind.startswith("filtered"):
        return FilteredGreedyMechanism(m, rng.randint(1, 3), lottery), 3
    gamma = rng.choice([Fraction(0), Fraction(1, 100), Fraction(1, 4)])
    return GrandBundleMechanism(m, gamma, lottery), small_cap(m)


def random_config(rng, k):
    """Config `k` of a cycle over every kind, both tie rules, drawn and
    scripted orders and 0-2 byzantine bidders: 1-5 agents and 1-400
    rounds, with random starts wherever the mechanism admits them."""
    kind = KINDS[k % len(KINDS)]
    k //= len(KINDS)
    m = rng.randint(3, 7)
    mechanism, max_size = random_mechanism(rng, kind, m)
    n = rng.randint(1, 5)
    types = random_types(rng, n, m, max_atoms=3, max_value=24, max_size=max_size,
                         grand_prob=0.3 if kind in ("two-tier", "grand", "grand-lottery") else 0.0)
    byzantine = set(rng.sample(range(n), min(n, k // 4 % 3)))
    agents = [make_agent(i, t, ByzantineBidder() if i in byzantine else BestResponder(), mechanism)
              for i, t in enumerate(types)]
    random_start = mechanism.lottery or kind in ("greedy", "partition", "two-tier")
    order = None
    if k // 2 % 2:
        order = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
    return RunConfig(
        mechanism=mechanism, agents=agents, rounds=rng.randint(1, 400),
        seed=rng.randrange(1 << 32), empty_start=not random_start or rng.random() < 0.5,
        keep_on_tie=bool(k % 2), scripted_order=order,
    )


def counted(calls, key, respond=best_response):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return respond(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("seed", range(3))
def test_engine_matches_round_by_round_reference(seed, monkeypatch):
    rng = random.Random(f"engine-reference:{seed}")
    calls = {"engine": 0, "reference": 0}
    monkeypatch.setattr(dynamics, "best_response", counted(calls, "engine"))
    monkeypatch.setattr(sys.modules[__name__], "best_response", counted(calls, "reference"))
    for k in range(100):
        config = random_config(rng, k)
        kind = config.mechanism.name
        before = dict(calls)
        trace = run_best_response_dynamics(config)
        expected = ref_run_best_response_dynamics(config)
        assert trace.states == expected.states, (kind, config.seed)
        assert trace.plays == expected.plays, (kind, config.seed)
        assert trace.updaters == expected.updaters, (kind, config.seed)
        assert (calls["engine"] - before["engine"]
                <= calls["reference"] - before["reference"]), (kind, config.seed)
    assert calls["engine"] < calls["reference"]


# -- the mover's response ---------------------------------------------------

# a rule without closed forms: every price comes from the generic search
SEARCH_ONLY = AllocationRule("greedy-search", lambda profile: greedy_allocate(profile, 2))


@pytest.mark.parametrize("kind", KINDS + ("search",))
def test_a_movers_new_bid_is_its_best_response_where_it_moved(kind):
    """A bidder's utilities read only the other agents' bids, so after it
    moves from P to P' its best response at P' is the bid it just made."""
    rng = random.Random(f"mover-response:{kind}")
    moves = 0
    for _ in range(60):
        m = rng.randint(3, 6)
        if kind == "search":
            mechanism, max_size = RuleMechanism(SEARCH_ONLY, m), 2
        else:
            mechanism, max_size = random_mechanism(rng, kind, m)
        n = rng.randint(1, 5)
        types = random_types(rng, n, m, max_atoms=3, max_value=24, max_size=max_size,
                             grand_prob=0.3)
        agents = [make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types)]
        profile = random_profile(rng, n, m, max_size=m, max_value=30)
        for model in agents:
            for keep_on_tie in (True, False):
                new = best_response(model, profile, mechanism, keep_on_tie)
                moved = profile[:model.index] + (new,) + profile[model.index + 1:]
                assert best_response(model, moved, mechanism, keep_on_tie) == new
                moves += new != profile[model.index]
    assert moves > 0
