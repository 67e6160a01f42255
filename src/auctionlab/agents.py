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
from typing import Sequence

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


def byzantine_bid(model: AgentModel, rng) -> Declaration:
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


class PerturbedLearnerState:
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


def learner_state_for(model: AgentModel):
    """A fresh learner state for a learner, None for any other behavior."""
    if isinstance(model.behavior, WeightedLearner):
        return WeightedLearnerState(len(model.candidate_bids), model.valuation.max_value)
    if isinstance(model.behavior, PerturbedLearner):
        return PerturbedLearnerState(len(model.candidate_bids), model.valuation.max_value)
    return None
