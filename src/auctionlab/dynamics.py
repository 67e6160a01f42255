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
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

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


class Step(NamedTuple):
    """What a round played: the profile, the mechanism coin and what they
    produced.  Both engines build one per distinct (state, coin) and every
    round that plays it refers to that one step."""

    profile: Profile
    coin: Coin
    outcome: Outcome
    declared_welfare: int
    true_welfare: int


@dataclass(slots=True)
class RoundRecord:
    """One round of a trace, as `Trace.records` presents it.  Records are
    read-only by convention; the engines build none, and a trace builds its
    records only when they are first read."""

    round: int
    updater: int  # agent index, or ALL_AGENTS for concurrent rounds
    profile: Profile
    coin: Coin
    outcome: Outcome
    declared_welfare: int
    true_welfare: int


class Trace:
    """The rounds of one run: round t (1-based) played `steps[t - 1]` after
    `updaters[t - 1]` moved.  Rounds that revisit a (state, coin) share its
    step object.  `Trace(mechanism, agents, records)` builds a trace from
    records; the engines build theirs from steps with `from_steps`."""

    def __init__(self, mechanism: Mechanism, agents: tuple[AgentModel, ...],
                 records: Sequence[RoundRecord] = ()) -> None:
        records = tuple(records)
        self.mechanism = mechanism
        self.agents = agents
        self.steps = tuple(
            Step(r.profile, r.coin, r.outcome, r.declared_welfare, r.true_welfare)
            for r in records
        )
        self.updaters = tuple(r.updater for r in records)
        self.records = records

    @classmethod
    def from_steps(cls, mechanism: Mechanism, agents: tuple[AgentModel, ...],
                   steps: tuple[Step, ...], updaters: tuple[int, ...]) -> Trace:
        trace = cls.__new__(cls)
        trace.mechanism, trace.agents = mechanism, agents
        trace.steps, trace.updaters = steps, updaters
        return trace

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """One record per round, built on first read."""
        return tuple(
            RoundRecord(t, updater, *step)
            for t, (updater, step) in enumerate(zip(self.updaters, self.steps), 1)
        )

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def rounds(self) -> int:
        return len(self.steps)

    def profiles(self) -> list[Profile]:
        return [step.profile for step in self.steps]

    def history_for(self, agent: int) -> list[tuple[Declaration, Profile]]:
        return [(step.profile[agent], step.profile) for step in self.steps]


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
# steps, best responses, learner feedback) is a pure function of its key,
# so caching them leaves traces unchanged.  The caches live for one run and
# are emptied when they outgrow this many states, which bounds their memory
# on runs that rarely repeat a state.  Measured runs stay far below it: at
# most 357 distinct states in a 20,000-round learner run with a byzantine
# bidder, at most 35 without one, and at most 10 in a best-response run.
# The steps a trace refers to outlive a clear, so at worst a run keeps one
# step per round.
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
    """A run without agents: every round plays the empty profile and
    outcome, and no stream is drawn."""
    step = Step((), COIN_NONE, Outcome((), ()), 0, 0)
    rounds = config.rounds
    return Trace.from_steps(config.mechanism, (), (step,) * rounds, (ALL_AGENTS,) * rounds)


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
    # per profile: best responses by updater, steps by coin
    states: dict = {}
    responses, steps_by_coin = _cache_slot(states, profile, lambda: ({}, {}))
    steps, updaters = [], []
    play, moved = steps.append, updaters.append
    for t in range(config.rounds):
        if order is not None:
            updater = order[t % len(order)]
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
            responses, steps_by_coin = _cache_slot(states, profile, lambda: ({}, {}))
        coin = draw_coin(rng_coin, n)
        step = steps_by_coin.get(coin)
        if step is None:
            step = steps_by_coin[coin] = Step(
                profile, coin, *_round_result(mechanism, profile, coin, agents)
            )
        play(step)
        moved(updater)
    return Trace.from_steps(mechanism, tuple(agents), tuple(steps), tuple(updaters))


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
    # declarations: the profile, each learner's prepared feedback and steps
    # by coin
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

    steps = []
    play = steps.append
    for _ in range(config.rounds):
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
        profile, feedback, steps_by_coin = entry
        coin = draw_coin(rng_coin, n)
        step = steps_by_coin.get(coin)
        if step is None:
            step = steps_by_coin[coin] = Step(
                profile, coin, *_round_result(mechanism, profile, coin, agents)
            )
        for state, gains in zip(learner_states, feedback):
            state.update(gains)
        play(step)
    steps = tuple(steps)
    return Trace.from_steps(mechanism, tuple(agents), steps, (ALL_AGENTS,) * len(steps))


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
