"""Bidder behavior engines: undominated bidding, exact best response,
regret-minimizing learners, and byzantine no-overbid bidders.

A bidder's strategy space is `AgentModel.candidate_bids`, in bundle order:
staying out (EMPTY), the atom bundles, and the grand bundle under the
grand-bundle mechanism, where bidding on everything is a genuinely distinct
route.  Every candidate bid is undominated: it bids its set's true value,
and learners and best responders price the tuple through the mechanism.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Iterator, Sequence

from .core import (EMPTY, Declaration, Profile, ValidationError, Valuation, bundle_key, full_mask,
                   randbelow, single_minded)
from .mechanisms import GrandBundleMechanism, Mechanism


@dataclass(frozen=True)
class BestResponder:
    """Switches to a strictly better candidate when one exists."""


@dataclass(frozen=True)
class WeightedLearner:
    """Multiplicative-weights learner with learning rate sqrt(8 ln K / t)
    in round t."""


@dataclass(frozen=True)
class PerturbedLearner:
    """Follow-the-perturbed-leader with integer perturbation range
    ceil(sqrt(t)) * u_max in round t."""


@dataclass(frozen=True)
class ByzantineBidder:
    """Arbitrary seeded policy constrained to never bid above true value."""


@dataclass(frozen=True)
class AgentModel:
    index: int
    valuation: Valuation
    behavior: object
    candidate_bids: tuple[Declaration, ...]


def undominated_bid(valuation: Valuation, chosen: int) -> Declaration:
    """The single undominated declaration for a chosen bundle: bid the true
    value; zero-value or empty choices collapse to EMPTY."""
    return single_minded(chosen, valuation.value_of(chosen))


def candidate_bundles(valuation: Valuation, mechanism: Mechanism | None = None) -> tuple[int, ...]:
    masks = {0}
    masks.update(mask for mask, _ in valuation.atoms)
    if isinstance(mechanism, GrandBundleMechanism) and valuation.max_value > 0:
        masks.add(full_mask(mechanism.item_count))
    return tuple(sorted(masks, key=bundle_key))


def make_agent(
    index: int,
    valuation: Valuation,
    behavior: object,
    mechanism: Mechanism | None = None,
) -> AgentModel:
    cands = candidate_bundles(valuation, mechanism)
    bids = tuple(undominated_bid(valuation, c) for c in cands)
    return AgentModel(index, valuation, behavior, bids)


def best_response(
    model: AgentModel,
    profile: Profile,
    mechanism: Mechanism,
    keep_on_tie: bool = True,
) -> Declaration:
    """Utility-maximizing undominated declaration; keeps the current one when
    nothing strictly improves (ties among improvements go to the smaller
    bundle).  Compares the exact integer numerators of the expected
    utilities, which share one denominator."""
    i = model.index
    _, utilities = mechanism.scaled_utilities(
        i, model.candidate_bids + (profile[i],), profile, model.valuation
    )
    current_utility = utilities.pop()
    best = max(utilities)
    if best > current_utility or (best == current_utility and not keep_on_tie):
        # the first maximum: the smaller bundle on a tie, as candidates are in bundle order
        return model.candidate_bids[utilities.index(best)]
    return profile[i]


def byzantine_bid(model: AgentModel, rng) -> Iterator[Declaration]:
    """The bidder's declarations, drawn one per `next`: a uniform non-empty
    candidate bundle with a uniform bid in [0, true value].  Nothing is
    drawn before the first `next`, and a bidder whose only candidate is
    staying out draws nothing at all."""
    # candidate 0 is staying out, and each candidate bid is its set's true
    # value (EMPTY, bid 0, for a worthless set)
    n = len(model.candidate_bids)
    if n < 2:
        yield from repeat(EMPTY)
    # `randbelow(rng, n - 1) + 1`, then `randbelow(rng, value + 1)`, with
    # the rule's getrandbits rejection loop inline
    getrandbits = rng.getrandbits
    sets, set_bits = n - 1, (n - 1).bit_length()
    bids = [(set_mask, value + 1, (value + 1).bit_length())
            for set_mask, value in model.candidate_bids[1:]]
    while True:
        k = getrandbits(set_bits)
        while k >= sets:
            k = getrandbits(set_bits)
        set_mask, ceiling, bits = bids[k]
        bid = getrandbits(bits)
        while bid >= ceiling:
            bid = getrandbits(bits)
        yield EMPTY if bid == 0 else Declaration(set_mask, bid)


def hindsight_totals(
    history: Counter[tuple[Declaration, Profile]],
    model: AgentModel,
    mechanism: Mechanism,
) -> tuple[Fraction, list[Fraction]]:
    """Total realized utility over `history`, a Counter of rounds per (own
    declaration, profile), and the total each fixed candidate would have
    earned against the same opponents; exact."""
    if not history.total():
        raise ValidationError("regret needs at least one round of history")
    i, valuation = model.index, model.valuation
    realized = Fraction(0)
    fixed = [Fraction(0)] * len(model.candidate_bids)
    for (own, profile), rounds in history.items():
        *utilities, own_utility = mechanism.counterfactual_utilities(
            i, model.candidate_bids + (own,), profile, valuation
        )
        realized += rounds * own_utility
        for k, u in enumerate(utilities):
            fixed[k] += rounds * u
    return realized, fixed


def external_regret(
    history: Counter[tuple[Declaration, Profile]],
    model: AgentModel,
    mechanism: Mechanism,
) -> Fraction:
    """Per-round average shortfall against the best fixed candidate in
    hindsight; exact, may be negative."""
    realized, fixed = hindsight_totals(history, model, mechanism)
    return Fraction(max(fixed) - realized, history.total())


class WeightedLearnerState:
    """Multiplicative-weights states of a run's MW learners: per learner its
    slot in the round key, positive float weights that drive sampling, its
    stream and its constants.  A round's feedback holds, per learner, its
    non-zero utilities as `(k, float(u))` pairs."""

    def __init__(self, learners: Sequence[tuple[int, AgentModel, object]]):
        self.models = [model for _, model, _ in learners]
        self.weights = [[1.0] * len(model.candidate_bids) for model in self.models]
        self.rounds = 0
        self._draws = [(slot, weights, rng.random)
                       for (slot, _, rng), weights in zip(learners, self.weights)]
        # per learner that learns: its feedback index, weights, u_max and the
        # 8 ln K of its rate sqrt(8 ln K / t); a zero rate (one candidate) or
        # u_max leaves the weights as they are
        self._rates = [(j, weights, model.valuation.max_value, 8.0 * math.log(len(weights)))
                       for j, (model, weights) in enumerate(zip(self.models, self.weights))
                       if model.valuation.max_value and len(weights) >= 2]

    @staticmethod
    def feedback(utilities: Sequence[Sequence]) -> tuple[tuple[tuple[int, float], ...], ...]:
        return tuple(tuple((k, float(u)) for k, u in enumerate(vector) if u)
                     for vector in utilities)

    def choose(self, key: list) -> None:
        for slot, weights, random_draw in self._draws:
            # Added left to right, as `sum()` adds floats before Python 3.12;
            # 3.12's compensated `sum()` can round the total differently.
            total = 0.0
            for w in weights:
                total += w
            pick = random_draw() * total
            acc = 0.0
            k = 0
            for w in weights:
                acc += w
                if pick < acc:
                    break
                k += 1
            else:  # no running total exceeds the pick (every weight 0.0, say)
                k -= 1
            key[slot] = k

    def update(self, feedback: Sequence[Sequence[tuple[int, float]]]) -> None:
        self.rounds += 1
        rounds, exp = self.rounds, math.exp
        for j, weights, scale, log_term in self._rates:
            eta = math.sqrt(log_term / rounds)
            overflow = False
            for k, fu in feedback[j]:
                w = weights[k] = weights[k] * exp(eta * fu / scale)
                if w > 1e250:
                    overflow = True
            # Renormalize occasionally so long runs cannot overflow the floats.
            # Every weight is at most 1e250 after an update, so only a weight
            # changed in this one can pass it.
            if overflow:
                top = max(weights)
                weights[:] = [w / top for w in weights]


class PerturbedLearnerState:
    """Follow-the-perturbed-leader states of a run's FTPL learners: per
    learner the argmax of cumulative utility plus a fresh uniform integer
    perturbation, ties to the smaller bundle.  A round's feedback holds, per
    learner, its utilities."""

    def __init__(self, learners: Sequence[tuple[int, AgentModel, object]]):
        self.models = [model for _, model, _ in learners]
        self.cumulative = [[0] * len(model.candidate_bids) for model in self.models]
        self.rounds = 0
        self._draws = [(slot, cumulative, rng, model.valuation.max_value)
                       for (slot, model, rng), cumulative in zip(learners, self.cumulative)]

    @staticmethod
    def feedback(utilities: Sequence[Sequence]) -> Sequence[Sequence]:
        return utilities

    def choose(self, key: list) -> None:
        spread = math.ceil(math.sqrt(self.rounds + 1))
        for slot, cumulative, rng, u_max in self._draws:
            width = spread * u_max
            best_k, best_score = 0, None
            for k, c in enumerate(cumulative):
                score = c + (randbelow(rng, width + 1) if width > 0 else 0)
                if best_score is None or score > best_score:
                    best_k, best_score = k, score
            key[slot] = best_k

    def update(self, feedback: Sequence[Sequence]) -> None:
        self.rounds += 1
        for cumulative, utilities in zip(self.cumulative, feedback):
            for k, u in enumerate(utilities):
                cumulative[k] += u


def learner_states(agents: Sequence[AgentModel], rngs: Sequence) -> list:
    """One state per learner kind present among `agents`, each holding every
    learner of that kind with its slot (its position) and its stream."""
    states = []
    for behavior, kind in ((WeightedLearner, WeightedLearnerState),
                           (PerturbedLearner, PerturbedLearnerState)):
        learners = [(i, model, rngs[i]) for i, model in enumerate(agents)
                    if isinstance(model.behavior, behavior)]
        if learners:
            states.append(kind(learners))
    return states
