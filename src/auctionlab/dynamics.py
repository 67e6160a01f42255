"""Repeated-game engines: concurrent regret-minimization rounds and
one-agent-per-round best-response rounds, with trace recording and cycle
detection.

Randomness is split into fixed streams derived from the run seed: one for
the updater order, one for mechanism coins, one per agent (learner
sampling and byzantine policies), and one for non-empty starts.  Identical
configs therefore produce bit-identical traces.  The order and coin streams
feed nothing else, so a run draws both in full before its first round
(`core.draws_below`, `Mechanism.draw_coins`); that consumes the same values
in the same order as drawing them round by round.  Every uniform int goes
through the one `core.randbelow` rule, which tests/test_core.py
(`TestDrawIdentity`) pins draw for draw to the interpreter's `randrange`.
"""
from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, islice
from typing import NamedTuple, Optional, Sequence

from .agents import (
    AgentModel,
    BestResponder,
    ByzantineBidder,
    PerturbedLearner,
    WeightedLearner,
    best_response,
    byzantine_bid,
    learner_state_for,
)
from .core import (EMPTY, Declaration, Outcome, Profile, ValidationError, declared_welfare,
                   draws_below, randbelow, social_welfare)
from .mechanisms import COIN_NONE, Coin, FilteredGreedyMechanism, Mechanism

ALL_AGENTS = -1  # updater marker for concurrent (regret) rounds
MAX_ROUNDS = 10**7  # the engines hold a few per-round lists, tens of bytes a round


def _derived_seed(seed: int, *tags) -> int:
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def seeded_rng(seed: int, *tags) -> random.Random:
    """Deterministic stream derivation, stable across platforms and runs."""
    return random.Random(_derived_seed(seed, *tags))


class Step(NamedTuple):
    """What a round played: the profile, the mechanism coin and what they
    produced.  A trace keeps each distinct step once, as one of its states."""

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
    """The rounds of one run: round t (1-based) played `states[plays[t - 1]]`
    after `updaters[t - 1]` moved.  `profiles()` and `records` are per-round
    views of these, for the stages that read round order; every other stage
    weighs each state by `uses`, its number of rounds.  The engines append a
    step only when its profile and coin first play, so their states are
    distinct, in order of first play, for any number of rounds."""

    def __init__(self, mechanism: Mechanism, agents: Sequence[AgentModel],
                 states: Sequence[Step], plays: Sequence[int],
                 updaters: Sequence[int]) -> None:
        self.mechanism, self.agents = mechanism, tuple(agents)
        self.states, self.plays, self.updaters = tuple(states), tuple(plays), tuple(updaters)

    @cached_property
    def records(self) -> tuple[RoundRecord, ...]:
        """One record per round, built on first read."""
        return tuple(
            RoundRecord(t, updater, *self.states[k])
            for t, (updater, k) in enumerate(zip(self.updaters, self.plays), 1)
        )

    @cached_property
    def uses(self) -> tuple[int, ...]:
        """The number of rounds that played each state, counted on first read."""
        counts = Counter(self.plays)
        return tuple(counts[k] for k in range(len(self.states)))

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def rounds(self) -> int:
        return len(self.plays)

    def profiles(self) -> list[Profile]:
        profiles = [step.profile for step in self.states]
        return [profiles[k] for k in self.plays]

    def history_for(self, agent: int) -> Counter[tuple[Declaration, Profile]]:
        """Rounds played per (the agent's own declaration, profile)."""
        history = Counter()
        for step, rounds in zip(self.states, self.uses):
            history[step.profile[agent], step.profile] += rounds
        return history


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
        if self.rounds > MAX_ROUNDS:
            raise ValidationError(f"a run has at most {MAX_ROUNDS} rounds", arg="rounds")
        needs_lottery = isinstance(self.mechanism, FilteredGreedyMechanism)
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
        k = randbelow(rng, len(model.candidate_bids))
        picks.append(model.candidate_bids[k])
    return tuple(picks)


# Both engines revisit few states, and every per-state result below (a
# round's state index, best responses, learner feedback) is a pure function
# of its key, so caching them leaves traces unchanged.  Each cache is a plain
# dict kept for the whole run; only a miss appends a state to the trace, so a
# trace's states are distinct by construction and the cache grows with them.
# A best response reads only the other agents' bids, so a mover's new bid is
# stored as its response at the profile it moved to, and a profile at which
# every agent's stored response is its own bid is never left.


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
    return Trace(config.mechanism, (), (step,), (0,) * rounds, (ALL_AGENTS,) * rounds)


def run_best_response_dynamics(config: RunConfig) -> Trace:
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
    byzantine = [isinstance(model.behavior, ByzantineBidder) for model in agents]
    # only byzantine bidders draw from their streams here
    agent_rngs = {i: seeded_rng(config.seed, "agent", i) for i in range(n) if byzantine[i]}

    profile = _starting_profile(config)
    keep_on_tie = config.keep_on_tie
    # per profile: best responses by updater, state indices by coin
    cache = {profile: ({}, {})}
    responses, by_coin = cache[profile]
    states, plays = [], []
    play = plays.append
    for updater, coin in zip(updaters, coins):
        stored = False
        if byzantine[updater]:
            new_decl = byzantine_bid(agents[updater], agent_rngs[updater])
        else:
            new_decl = responses.get(updater)
            if new_decl is None:
                new_decl = responses[updater] = best_response(
                    agents[updater], profile, mechanism, keep_on_tie
                )
                stored = True
        if new_decl != profile[updater]:
            profile = profile[:updater] + (new_decl,) + profile[updater + 1 :]
            entry = cache.get(profile)
            if entry is None:
                entry = cache[profile] = ({}, {})
            responses, by_coin = entry
            if not byzantine[updater]:
                responses.setdefault(updater, new_decl)
                stored = True
        if stored and responses == dict(enumerate(profile)):
            # settled, which a run with a byzantine bidder never is, since it
            # stores no response: the rest of the run replays this profile.
            # A mechanism without chance repeats one coin object, which
            # `count` matches by identity.
            rest = coins[len(plays) :]
            one_coin = rest.count(rest[0]) == len(rest)
            for coin in rest[:1] if one_coin else dict.fromkeys(rest):
                if coin not in by_coin:
                    by_coin[coin] = len(states)
                    result = _round_result(mechanism, profile, coin, agents)
                    states.append(Step(profile, coin, *result))
            plays += [by_coin[rest[0]]] * len(rest) if one_coin else map(by_coin.__getitem__, rest)
            break
        k = by_coin.get(coin)
        if k is None:
            k = by_coin[coin] = len(states)
            states.append(Step(profile, coin, *_round_result(mechanism, profile, coin, agents)))
        play(k)
    return Trace(mechanism, agents, states, plays, updaters)


def run_regret_dynamics(config: RunConfig) -> Trace:
    """Every learner samples a candidate and submits its undominated bid
    simultaneously; after the round each learner receives the full
    counterfactual utility vector against the just-played opponents."""
    mechanism = config.mechanism
    agents = config.agents
    n = len(agents)
    for field, default in (("scripted_order", None), ("initial_profile", None),
                           ("keep_on_tie", True), ("empty_start", True)):
        if getattr(config, field) != default:  # only best-response dynamics reads it
            raise ValidationError("regret dynamics does not use it", arg=field)
    _check_behaviors(agents, "regret")
    if n == 0:
        return _agentless_trace(config)
    coins = mechanism.draw_coins(seeded_rng(config.seed, "coin"), n, config.rounds)
    agent_rngs = [seeded_rng(config.seed, "agent", i) for i in range(n)]

    # keyed by the learners' candidate indices and the byzantine bidders'
    # declarations: the profile, each learner's prepared feedback and state
    # indices by coin
    cache: dict = {}
    # per agent: (learner state or None for a byzantine bidder, model, rng)
    plan = [(learner_state_for(model), model, agent_rngs[i]) for i, model in enumerate(agents)]
    learner_states = [state for state, _, _ in plan if state is not None]

    def state_of(key):
        profile = tuple(
            model.candidate_bids[k] if state is not None else k
            for (state, model, _), k in zip(plan, key)
        )
        feedback = [
            state.feedback(mechanism.counterfactual_utilities(
                model.index, model.candidate_bids, profile, model.valuation))
            for state, model, _ in plan if state is not None
        ]
        return profile, feedback, {}

    states, plays = [], []
    play = plays.append
    for coin in coins:
        key = []
        for state, model, rng in plan:
            if state is not None:
                key.append(state.choose(rng))
            else:
                # looked up per call, so a wrapper installed on this module sees it
                key.append(byzantine_bid(model, rng))
        key = tuple(key)
        entry = cache.get(key)
        if entry is None:
            entry = cache[key] = state_of(key)
        profile, feedback, by_coin = entry
        k = by_coin.get(coin)
        if k is None:
            k = by_coin[coin] = len(states)
            states.append(Step(profile, coin, *_round_result(mechanism, profile, coin, agents)))
        for state, gains in zip(learner_states, feedback):
            state.update(gains)
        play(k)
    return Trace(mechanism, agents, states, plays, (ALL_AGENTS,) * len(plays))


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
