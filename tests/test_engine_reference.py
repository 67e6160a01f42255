"""The round engines against their earlier forms, the best response
against its earlier Fraction form, and the invariant that lets the
best-response engine reuse a mover's response.

`ref_run_best_response_dynamics` is the best-response engine's earlier body
and `ref_best_response` is `agents.best_response`'s, copied verbatim; only
their names carry the `ref_` prefix, and the reference engine calls
`ref_best_response`.  `best_response` now compares the integer numerators
of `Mechanism.scaled_utilities` where `ref_best_response` compares the
Fractions of `counterfactual_utilities`.  The engine now stops
its round loop once the profile has settled, stores a mover's new bid as
its best response at the profile it moved to, builds agent streams for
byzantine bidders only, and replays a settled tail of one coin in one step;
none of that may change a trace.

`ref_run_regret_dynamics` is the regret engine's per-learner body, with
`ref_WeightedLearnerState`, `ref_PerturbedLearnerState`,
`ref_learner_state_for` and `ref_byzantine_bid` copied verbatim in the same
way; both reference engines draw byzantine bids through
`ref_byzantine_bid`, one call per bid.  The regret engine now runs each
learner kind as one state for all its learners and draws byzantine bids
from one lazy stream per bidder; that may not change a trace either.
"""
import math
import random
import sys
from fractions import Fraction
from itertools import cycle, islice
from typing import Sequence

import pytest

from auctionlab import (
    EMPTY,
    BestResponder,
    ByzantineBidder,
    Declaration,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    PerturbedLearner,
    RuleMechanism,
    ValidationError,
    Valuation,
    WeightedLearner,
    full_mask,
    greedy_rule,
    make_agent,
    partition_rule,
    two_tier_rule,
    undominated_bid,
)
from auctionlab import dynamics
from auctionlab.agents import AgentModel, best_response
from auctionlab.algorithms import AllocationRule, greedy_allocate, small_cap
from auctionlab.core import draws_below, randbelow
from auctionlab.dynamics import (
    ALL_AGENTS,
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


# -- the earlier forms, verbatim ------------------------------------------


def ref_best_response(model, profile, mechanism, keep_on_tie=True):
    i = model.index
    *utilities, current_utility = mechanism.counterfactual_utilities(
        i, model.candidate_bids + (profile[i],), profile, model.valuation
    )
    best_k = max(range(len(utilities)), key=lambda k: (utilities[k], -k))
    if keep_on_tie:
        if utilities[best_k] > current_utility:
            return model.candidate_bids[best_k]
        return profile[i]
    if current_utility > utilities[best_k]:
        return profile[i]
    return model.candidate_bids[best_k]


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
            new_decl = ref_byzantine_bid(agents[updater], agent_rngs[updater])
        else:
            new_decl = responses.get(updater)
            if new_decl is None:
                new_decl = responses[updater] = ref_best_response(
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


def ref_byzantine_bid(model: AgentModel, rng) -> Declaration:
    """Uniform non-empty candidate bundle with a uniform bid in [0, true value]."""
    # candidate 0 is staying out, and each candidate bid is its set's true
    # value (EMPTY, bid 0, for a worthless set)
    n = len(model.candidate_bids)
    if n < 2:
        return EMPTY
    set_mask, value = model.candidate_bids[randbelow(rng, n - 1) + 1]
    bid = randbelow(rng, value + 1)
    if bid == 0:
        return EMPTY
    return Declaration(set_mask, bid)


class ref_WeightedLearnerState:
    """Multiplicative-weights state: positive float weights drive sampling.
    A round's feedback is its non-zero utilities as `(k, float(u))` pairs."""

    def __init__(self, n_candidates: int, u_max: int):
        self.weights = [1.0] * n_candidates
        self.rounds = 0
        self.u_max = u_max
        # 8 ln K of the rate sqrt(8 ln K / t); one candidate never learns
        self._log_term = 8.0 * math.log(n_candidates) if n_candidates >= 2 else 0.0

    @staticmethod
    def feedback(utilities: Sequence) -> tuple[tuple[int, float], ...]:
        return tuple((k, float(u)) for k, u in enumerate(utilities) if u)

    def choose(self, rng) -> int:
        weights = self.weights
        # Added left to right, as `sum()` adds floats before Python 3.12;
        # 3.12's compensated `sum()` can round the total differently.
        total = 0.0
        for w in weights:
            total += w
        pick = rng.random() * total
        acc = 0.0
        for k, w in enumerate(weights):
            acc += w
            if pick < acc:
                return k
        return len(weights) - 1

    def update(self, gains: Sequence[tuple[int, float]]) -> None:
        self.rounds += 1
        scale = self.u_max
        # a zero rate (one candidate) or scale leaves the weights as they are
        if not (gains and scale and self._log_term):
            return
        eta = math.sqrt(self._log_term / self.rounds)
        weights = self.weights
        overflow = False
        for k, fu in gains:
            w = weights[k] = weights[k] * math.exp(eta * fu / scale)
            overflow = overflow or w > 1e250
        # Renormalize occasionally so long runs cannot overflow the floats.
        # Every weight is at most 1e250 after an update, so only a weight
        # changed in this one can pass it.
        if overflow:
            top = max(weights)
            self.weights = [w / top for w in weights]


class ref_PerturbedLearnerState:
    """Follow-the-perturbed-leader state: argmax of cumulative utility plus a
    fresh uniform integer perturbation, ties to the smaller bundle."""

    def __init__(self, n_candidates: int, u_max: int):
        self.cumulative = [0] * n_candidates
        self.rounds = 0
        self.u_max = u_max

    @staticmethod
    def feedback(utilities: Sequence) -> Sequence:
        return utilities

    def choose(self, rng) -> int:
        width = math.ceil(math.sqrt(self.rounds + 1)) * self.u_max
        best_k, best_score = 0, None
        for k, c in enumerate(self.cumulative):
            score = c + (randbelow(rng, width + 1) if width > 0 else 0)
            if best_score is None or score > best_score:
                best_k, best_score = k, score
        return best_k

    def update(self, utilities: Sequence) -> None:
        self.rounds += 1
        for k, u in enumerate(utilities):
            self.cumulative[k] += u


def ref_learner_state_for(model: AgentModel):
    """A fresh learner state for a learner, None for any other behavior."""
    if isinstance(model.behavior, WeightedLearner):
        return ref_WeightedLearnerState(len(model.candidate_bids), model.valuation.max_value)
    if isinstance(model.behavior, PerturbedLearner):
        return ref_PerturbedLearnerState(len(model.candidate_bids), model.valuation.max_value)
    return None


def ref_run_regret_dynamics(config: RunConfig) -> Trace:
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
    plan = [(ref_learner_state_for(model), model, agent_rngs[i]) for i, model in enumerate(agents)]
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
                key.append(ref_byzantine_bid(model, rng))
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
    monkeypatch.setattr(sys.modules[__name__], "ref_best_response",
                        counted(calls, "reference", ref_best_response))
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


# -- the settled tail -------------------------------------------------------


def test_settled_tail_of_one_coin_or_many_matches_reference():
    """Long runs that settle replay their tail in one step when every coin
    left is the one object of a mechanism without chance, and coin by coin
    when coins vary (a trembling or lottery grand bundle); both equal the
    round-by-round reference."""
    rng = random.Random("settled-tail")
    seen = set()
    for kind in ("filtered", "grand", "grand-lottery") * 4:
        m = rng.randint(4, 7)
        mechanism, max_size = random_mechanism(rng, kind, m)
        n = rng.randint(2, 5)
        types = random_types(rng, n, m, max_atoms=3, max_value=24, max_size=max_size,
                             grand_prob=0.3)
        agents = [make_agent(i, t, BestResponder(), mechanism) for i, t in enumerate(types)]
        config = RunConfig(mechanism=mechanism, agents=agents, rounds=2000,
                           seed=rng.randrange(1 << 32))
        trace = run_best_response_dynamics(config)
        expected = ref_run_best_response_dynamics(config)
        where = (kind, config.seed)
        assert trace.states == expected.states, where
        assert trace.plays == expected.plays, where
        assert trace.updaters == expected.updaters, where
        last = trace.states[trace.plays[-1]].profile
        if all(best_response(agent, last, mechanism, config.keep_on_tie) == last[i]
               for i, agent in enumerate(agents)):
            coins = mechanism.draw_coins(seeded_rng(config.seed, "coin"), n, config.rounds)
            seen.add("one coin" if len(set(coins)) == 1 else "many coins")
    assert seen == {"one coin", "many coins"}


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


# -- the best response against its Fraction form ------------------------------

GAMMAS = (Fraction(0), Fraction(1, 100), Fraction(1, 3))
LOTTERIES = (None, Fraction(1, 20), Fraction(1, 7))


def every_mechanism(rng, m):
    """One mechanism of each built-in kind on `m` items, the filtered kinds
    under every lottery and the grand bundle under every gamma too, each
    with the largest set its bidders want."""
    yield RuleMechanism(greedy_rule(rng.choice([None, 1, 2, 3])), m), 3
    side_a = rng.randrange(full_mask(m) + 1)
    yield RuleMechanism(partition_rule(m, side_a, rng.choice([None, 1, 2, 3])), m), m
    yield RuleMechanism(two_tier_rule(m), m), small_cap(m)
    yield RuleMechanism(SEARCH_ONLY, m), 2
    for lottery in LOTTERIES:
        yield FilteredGreedyMechanism(m, rng.randint(1, 3), lottery), 3
        for gamma in GAMMAS:
            yield GrandBundleMechanism(m, gamma, lottery), small_cap(m)


def test_best_response_matches_its_fraction_form():
    """Equal declarations from the integer comparison and from the `(u, -k)`
    key over Fractions, for 1-6 agents and both tie rules; the tie rule
    decides some of the cases."""
    rng = random.Random("best-response-reference")
    sizes, moves, tie_decided = set(), 0, 0
    for _ in range(12):
        m = rng.randint(3, 6)
        for mechanism, max_size in every_mechanism(rng, m):
            for _ in range(4):
                n = rng.randint(1, 6)
                sizes.add(n)
                types = random_types(rng, n, m, max_atoms=3, max_value=12,
                                     max_size=max_size, grand_prob=0.3)
                agents = [make_agent(i, t, BestResponder(), mechanism)
                          for i, t in enumerate(types)]
                profile = random_profile(rng, n, m, max_size=m, max_value=14)
                for model in agents:
                    kept, moved = (
                        ref_best_response(model, profile, mechanism, keep_on_tie)
                        for keep_on_tie in (True, False)
                    )
                    where = (mechanism.name, mechanism.lottery, profile, model.index)
                    assert best_response(model, profile, mechanism, True) == kept, where
                    assert best_response(model, profile, mechanism, False) == moved, where
                    moves += kept != profile[model.index]
                    tie_decided += kept != moved
    assert sizes == set(range(1, 7))
    assert moves > 0 and tie_decided > 0


# -- the regret engine against its per-learner form ---------------------------

REGRET_KINDS = ("greedy", "filtered-lottery", "grand")
MIXES = {"mw": (WeightedLearner(),), "fpl": (PerturbedLearner(),),
         "mw+fpl": (WeightedLearner(), PerturbedLearner())}


def regret_mechanism(rng, kind, m):
    """Greedy with s = 2, filtered greedy with a lottery, or the grand
    bundle with gamma > 0, on `m` items, and the largest set its bidders
    want."""
    if kind == "greedy":
        return RuleMechanism(greedy_rule(2), m), 2
    if kind == "filtered-lottery":
        return FilteredGreedyMechanism(m, rng.randint(1, 3), Fraction(1, 16)), 3
    return GrandBundleMechanism(m, rng.choice([Fraction(1, 100), Fraction(1, 4)])), small_cap(m)


def same_regret_run(config):
    """The regret engine's trace, asserted equal to the reference's."""
    trace = dynamics.run_regret_dynamics(config)
    expected = ref_run_regret_dynamics(config)
    where = (config.mechanism.name, [type(a.behavior).__name__ for a in config.agents],
             config.seed)
    assert trace.states == expected.states, where
    assert trace.plays == expected.plays, where
    assert trace.updaters == expected.updaters, where
    return trace


def test_regret_engine_matches_per_learner_reference():
    """Every mechanism kind under every learner mix with 0-2 byzantine
    bidders: 1-5 agents and 1-600 rounds.  Under the grand bundle the
    trembling coin varies between rounds."""
    rng = random.Random("regret-reference")
    varied_coins = 0
    for k in range(2 * len(REGRET_KINDS) * len(MIXES) * 3):
        kind = REGRET_KINDS[k % 3]
        behaviors = MIXES[tuple(MIXES)[k // 3 % 3]]
        n_byzantine = k // 9 % 3
        m = rng.randint(3, 7)
        mechanism, max_size = regret_mechanism(rng, kind, m)
        n = rng.randint(max(1, n_byzantine), 5)
        types = random_types(rng, n, m, max_atoms=3, max_value=24, max_size=max_size,
                             grand_prob=0.3 if kind == "grand" else 0.0)
        byzantine = set(rng.sample(range(n), n_byzantine))
        agents = [make_agent(i, t, ByzantineBidder() if i in byzantine
                             else behaviors[i % len(behaviors)], mechanism)
                  for i, t in enumerate(types)]
        config = RunConfig(mechanism=mechanism, agents=agents, rounds=rng.randint(1, 600),
                           seed=rng.randrange(1 << 32))
        trace = same_regret_run(config)
        varied_coins += len({step.coin for step in trace.states}) > 1
    assert varied_coins > 0


@pytest.mark.parametrize("behavior", [WeightedLearner(), PerturbedLearner()],
                         ids=["mw", "fpl"])
def test_regret_engine_matches_reference_with_learners_that_cannot_learn(behavior):
    """A learner with one candidate and a worthless learner (u_max = 0)
    with three, beside learners of both kinds and a byzantine bidder."""
    rng = random.Random(f"regret-edge:{type(behavior).__name__}")
    for kind in REGRET_KINDS:
        m = 6
        mechanism, max_size = regret_mechanism(rng, kind, m)
        types = random_types(rng, 4, m, max_atoms=3, max_value=24, max_size=max_size,
                             grand_prob=0.3)
        agents = [make_agent(0, types[0], behavior, mechanism),
                  make_agent(1, types[1], WeightedLearner(), mechanism),
                  make_agent(2, types[2], PerturbedLearner(), mechanism),
                  make_agent(3, Valuation(), behavior, mechanism)]
        worthless = Valuation()
        agents.append(AgentModel(4, worthless, behavior,
                                 tuple(undominated_bid(worthless, c) for c in (0, 1, 6))))
        agents.append(make_agent(5, types[3], ByzantineBidder(), mechanism))
        assert len(agents[3].candidate_bids) == 1
        assert agents[4].valuation.max_value == 0 and len(agents[4].candidate_bids) == 3
        same_regret_run(RunConfig(mechanism=mechanism, agents=agents, rounds=500,
                                  seed=rng.randrange(1 << 32)))


def test_regret_engine_matches_reference_through_renormalisation(monkeypatch):
    """A learner alone on its items earns its full value on every set, so
    its weights pass 1e250 within the run and are renormalised."""
    renormalised = []

    class CountingState(ref_WeightedLearnerState):
        def update(self, gains):
            weights = self.weights
            super().update(gains)
            if self.weights is not weights:
                renormalised.append(self.rounds)

    monkeypatch.setattr(sys.modules[__name__], "ref_WeightedLearnerState", CountingState)
    mechanism = RuleMechanism(greedy_rule(2), 6)
    alone = Valuation([(0b1, 20), (0b10, 20), (0b100, 20), (0b11, 20)])
    rivals = [Valuation([(0b1000, 9), (0b10000, 7)]), Valuation([(0b11000, 12), (0b100000, 5)])]
    agents = [make_agent(0, alone, WeightedLearner(), mechanism),
              make_agent(1, rivals[0], WeightedLearner(), mechanism),
              make_agent(2, rivals[1], ByzantineBidder(), mechanism)]
    same_regret_run(RunConfig(mechanism=mechanism, agents=agents, rounds=8000, seed=5))
    assert renormalised


def test_regret_engine_matches_reference_at_low_state_reuse():
    """Four byzantine bidders among six agents over 9,000 rounds: almost
    every round plays a state of its own."""
    rng = random.Random("regret-low-reuse")
    mechanism = RuleMechanism(greedy_rule(2), 8)
    types = random_types(rng, 6, 8, max_atoms=3, max_value=32, max_size=2)
    agents = [make_agent(i, t, ByzantineBidder() if i >= 2 else WeightedLearner(), mechanism)
              for i, t in enumerate(types)]
    trace = same_regret_run(RunConfig(mechanism=mechanism, agents=agents, rounds=9000,
                                      seed=rng.randrange(1 << 32)))
    assert len(trace.states) > 8000
