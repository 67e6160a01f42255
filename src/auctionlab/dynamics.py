"""Repeated-game engines: concurrent regret-minimization rounds and
one-agent-per-round best-response rounds, with trace recording and cycle
detection.

Randomness is split into fixed streams derived from the run seed: one for
the updater order, one for mechanism coins, one per agent (learner
sampling and byzantine policies), and one for non-empty starts.  Identical
configs therefore produce bit-identical traces.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .agents import (
    AgentModel,
    BestResponder,
    ByzantineBidder,
    PerturbedLearner,
    WeightedLearner,
    best_response,
    byzantine_bid,
    counterfactual_utilities,
    learner_state_for,
)
from .core import EMPTY, Declaration, Outcome, Profile, ValidationError, declared_welfare, social_welfare
from .mechanisms import COIN_NONE, Coin, FilteredGreedyMechanism, GrandBundleMechanism, Mechanism

ALL_AGENTS = -1  # updater marker for concurrent (regret) rounds


def _derived_seed(seed: int, *tags) -> int:
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(seed: int, *tags) -> random.Random:
    """Deterministic stream derivation, stable across platforms and runs."""
    return random.Random(_derived_seed(seed, *tags))


@dataclass(slots=True)
class RoundRecord:
    """One round of a trace.  Records are read-only by convention: both
    engines build one per round, and a slotted record is several times
    cheaper to build than a frozen one."""

    round: int
    updater: int  # agent index, or ALL_AGENTS for concurrent rounds
    profile: Profile
    coin: Coin
    outcome: Outcome
    declared_welfare: int
    true_welfare: int


@dataclass
class Trace:
    mechanism: Mechanism
    agents: tuple[AgentModel, ...]
    records: tuple[RoundRecord, ...] = ()

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def rounds(self) -> int:
        return len(self.records)

    def profiles(self) -> list[Profile]:
        return [r.profile for r in self.records]

    def history_for(self, agent: int) -> list[tuple[Declaration, Profile]]:
        return [(r.profile[agent], r.profile) for r in self.records]


@dataclass
class RunConfig:
    mechanism: Mechanism
    agents: list[AgentModel]
    rounds: int
    seed: int = 0
    empty_start: bool = True
    keep_on_tie: bool = True
    scripted_order: Optional[list[int]] = None
    initial_profile: Optional[Profile] = None

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValidationError("a run needs at least one round")
        needs_lottery = isinstance(
            self.mechanism, (FilteredGreedyMechanism, GrandBundleMechanism)
        )
        if not self.empty_start and needs_lottery and not self.mechanism.lottery:
            raise ValidationError("random starts on filtered mechanisms need a positive lottery",
                                  arg="empty_start")
        if self.initial_profile is not None:
            if not self.empty_start:
                raise ValidationError("an initial profile conflicts with a random start",
                                      arg="empty_start")
            if len(self.initial_profile) != len(self.agents):
                raise ValidationError("initial profile length must match the agent count")
        if self.scripted_order is not None:
            if not self.scripted_order:
                raise ValidationError("scripted order must not be empty")
            n = len(self.agents)
            for a in self.scripted_order:
                if not 0 <= a < n:
                    raise ValidationError(f"scripted order names unknown agent {a}")


def _starting_profile(config: RunConfig) -> Profile:
    if config.initial_profile is not None:
        return tuple(config.initial_profile)
    if config.empty_start:
        return tuple(EMPTY for _ in config.agents)
    rng = seeded_rng(config.seed, "init")
    picks = []
    for model in config.agents:
        k = rng.randrange(len(model.candidates))
        picks.append(model.candidate_bids[k])
    return tuple(picks)


# Both engines revisit few states, and every per-state result below (round
# results, best responses, learner feedback) is a pure function of its key,
# so caching them leaves traces unchanged.  The caches live for one run and
# are emptied when they outgrow this many states, which bounds their memory
# on runs that rarely repeat a state.  Measured runs stay far below it: at
# most 357 distinct states in a 20,000-round learner run with a byzantine
# bidder, at most 35 without one, and at most 10 in a best-response run.
STATE_CACHE_LIMIT = 4096


def _round_result(
    mechanism: Mechanism, profile: Profile, coin: Coin, agents: Sequence[AgentModel]
) -> tuple[Outcome, int, int]:
    """Outcome, declared welfare and true welfare of one round."""
    outcome = mechanism.outcome(profile, coin)
    declared = declared_welfare(outcome.allocation, profile)
    return outcome, declared, social_welfare(outcome.allocation, [a.valuation for a in agents])


# The behaviors each dynamics kind drives; an agent of any other is rejected.
DRIVES = {"best-response": (BestResponder, ByzantineBidder),
          "regret": (WeightedLearner, PerturbedLearner, ByzantineBidder)}


def _check_behaviors(agents: Sequence[AgentModel], kind: str) -> None:
    for model in agents:
        if not isinstance(model.behavior, DRIVES[kind]):
            name = type(model.behavior).__name__
            raise ValidationError(f"agent {model.index}: {kind} dynamics does not drive {name}")


def _agentless_trace(config: RunConfig) -> Trace:
    """A run without agents: every round records the empty profile and
    outcome, and no stream is drawn."""
    records = tuple(
        RoundRecord(t, ALL_AGENTS, (), COIN_NONE, Outcome((), ()), 0, 0)
        for t in range(1, config.rounds + 1)
    )
    return Trace(config.mechanism, (), records)


def _cache_slot(cache: dict, key, make):
    entry = cache.get(key)
    if entry is None:
        entry = cache[key] = make()
        if len(cache) > STATE_CACHE_LIMIT:
            cache.clear()
    return entry


def run_best_response_dynamics(config: RunConfig) -> Trace:
    """One uniformly random agent per round switches to a best response
    (scripted orders override the draw); the mechanism coin is drawn per
    round and the realized outcome recorded."""
    mechanism = config.mechanism
    agents = config.agents
    n = len(agents)
    _check_behaviors(agents, "best-response")
    if n == 0:
        return _agentless_trace(config)
    rng_order = seeded_rng(config.seed, "order")
    rng_coin = seeded_rng(config.seed, "coin")
    agent_rngs = [seeded_rng(config.seed, "agent", i) for i in range(n)]

    profile = _starting_profile(config)
    byzantine = [isinstance(model.behavior, ByzantineBidder) for model in agents]
    order = config.scripted_order
    draw_updater = rng_order.randrange
    draw_coin = mechanism.draw_coin
    keep_on_tie = config.keep_on_tie
    # per profile: best responses by updater, round results by coin
    states: dict = {}
    responses, results = _cache_slot(states, profile, lambda: ({}, {}))
    records = []
    for t in range(1, config.rounds + 1):
        if order is not None:
            updater = order[(t - 1) % len(order)]
        else:
            updater = draw_updater(n)
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
            responses, results = _cache_slot(states, profile, lambda: ({}, {}))
        coin = draw_coin(rng_coin, n)
        result = results.get(coin)
        if result is None:
            result = results[coin] = _round_result(mechanism, profile, coin, agents)
        records.append(RoundRecord(t, updater, profile, coin, *result))
    return Trace(mechanism, tuple(agents), tuple(records))


def run_regret_dynamics(config: RunConfig) -> Trace:
    """Every learner samples a candidate and submits its undominated bid
    simultaneously; after the round each learner receives the full
    counterfactual utility vector against the just-played opponents."""
    mechanism = config.mechanism
    agents = config.agents
    n = len(agents)
    _check_behaviors(agents, "regret")
    if n == 0:
        return _agentless_trace(config)
    rng_coin = seeded_rng(config.seed, "coin")
    agent_rngs = [seeded_rng(config.seed, "agent", i) for i in range(n)]

    # keyed by the learners' candidate indices and the byzantine bidders'
    # declarations: the profile, each learner's prepared feedback and round
    # results by coin
    states: dict = {}
    # per agent: (learner state or None for a byzantine bidder, model, rng)
    plan = [(learner_state_for(model), model, agent_rngs[i]) for i, model in enumerate(agents)]
    learner_states = [state for state, _, _ in plan if state is not None]
    draw_coin = mechanism.draw_coin

    def state_of(key):
        profile = tuple(
            model.candidate_bids[k] if state is not None else k
            for (state, model, _), k in zip(plan, key)
        )
        feedback = [
            state.feedback(counterfactual_utilities(model, profile, mechanism))
            for state, model, _ in plan if state is not None
        ]
        return profile, feedback, {}

    records = []
    for t in range(1, config.rounds + 1):
        key = []
        for state, model, rng in plan:
            if state is not None:
                key.append(state.choose(rng))
            else:
                # looked up per call, so a wrapper installed on this module sees it
                key.append(byzantine_bid(model, rng))
        key = tuple(key)
        entry = states.get(key)
        if entry is None:
            entry = _cache_slot(states, key, lambda: state_of(key))
        profile, feedback, results = entry
        coin = draw_coin(rng_coin, n)
        result = results.get(coin)
        if result is None:
            result = results[coin] = _round_result(mechanism, profile, coin, agents)
        for state, gains in zip(learner_states, feedback):
            state.update(gains)
        records.append(RoundRecord(t, ALL_AGENTS, profile, coin, *result))
    return Trace(mechanism, tuple(agents), tuple(records))


def detect_cycle(trace: Trace) -> Optional[tuple[int, int]]:
    """Smallest period p such that the profile sequence repeats with period p
    from some round onward, having observed at least two full periods.
    Returns (period, first round of the periodic tail) or None."""
    profiles = trace.profiles()
    total = len(profiles)
    for period in range(1, total // 2 + 1):
        last_mismatch = -1
        for t in range(total - period - 1, -1, -1):
            if profiles[t] != profiles[t + period]:
                last_mismatch = t
                break
        start = last_mismatch + 1
        if total - start >= 2 * period:
            return period, start + 1  # rounds are 1-based
    return None


def constant_tail_start(trace: Trace) -> int:
    """1-based round where the maximal trailing stretch of identical profiles
    begins (equals the round count when the last round still changed)."""
    profiles = trace.profiles()
    for t in range(len(profiles) - 1, 0, -1):
        if profiles[t] != profiles[t - 1]:
            return t + 1
    return 1


def replica_seed(seed: int, replica: int) -> int:
    """Stable seed of one replica, derived from the run seed."""
    return _derived_seed(seed, "replica", replica)
