"""Welfare and regret analytics over traces.

Every average here is an exact rational; decimals appear only when a
report is rendered for display.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .agents import AgentModel, external_regret
from .algorithms import opposing_total
from .core import AuctionError, Valuation
from .dynamics import Trace


class InstanceMismatchError(AuctionError):
    """A report was asked to combine a trace with foreign instance data."""


@dataclass(frozen=True)
class WelfareReport:
    average: Fraction          # mean per-round true welfare
    optimum: int               # oracle optimum for the same instance
    ratio: Fraction            # average / optimum (1 when the optimum is 0)


@dataclass(frozen=True)
class RegretReport:
    per_agent: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReplicaStats:
    minimum: Fraction
    median: Fraction
    pass_fraction: Fraction


def _build_report(
    trace: Trace, types: Sequence[Valuation], optimum: int, allow_excess: bool
) -> WelfareReport:
    if len(types) != trace.n_agents:
        raise InstanceMismatchError("type profile length differs from the trace")
    played = [(step.true_welfare, rounds)
              for step, rounds in zip(trace.states, trace.uses) if rounds]
    if not allow_excess and any(welfare > optimum for welfare, _ in played):
        raise InstanceMismatchError("trace welfare exceeds the claimed optimum")
    if not played:
        return WelfareReport(Fraction(0), optimum, Fraction(1))
    average = Fraction(sum([welfare * rounds for welfare, rounds in played]), trace.rounds)
    ratio = Fraction(1) if optimum == 0 else average / optimum
    return WelfareReport(average, optimum, ratio)


def welfare_report(trace: Trace, types: Sequence[Valuation], optimum: int) -> WelfareReport:
    return _build_report(trace, types, optimum, allow_excess=False)


def regret_report(trace: Trace, models: Sequence[AgentModel]) -> RegretReport:
    return RegretReport(tuple(
        external_regret(trace.history_for(model.index), model, trace.mechanism)
        for model in models
    ))


def coverage_report(
    trace: Trace,
    types: Sequence[Valuation],
    target_alloc: Sequence[int],
) -> tuple[Fraction, ...]:
    """Per agent, the fraction of rounds in which the opposing bids on the
    agent's target bundle already add up to at least half its value for it,
    or its own standing bid reaches half that value."""
    if len(types) != trace.n_agents or len(target_alloc) != trace.n_agents:
        raise InstanceMismatchError("instance data differs from the trace")
    n = trace.n_agents
    targets = [types[i].value_of(target_alloc[i]) for i in range(n)]
    counts = [0] * n
    for step, rounds in zip(trace.states, trace.uses):
        profile = step.profile
        for i, goal in enumerate(targets):
            if 2 * profile[i].bid >= goal or 2 * opposing_total(profile, i, target_alloc[i]) >= goal:
                counts[i] += rounds
    rounds = max(1, trace.rounds)
    return tuple(Fraction(c, rounds) for c in counts)


def resilience_report(
    trace: Trace,
    types: Sequence[Valuation],
    byzantine: frozenset[int] | set[int],
    restricted_optimum: int,
) -> WelfareReport:
    """Welfare report judged against the optimum restricted to the
    non-byzantine agents; identical to welfare_report when the byzantine
    set is empty and the full optimum is passed.  The ratio may exceed 1,
    since byzantine winnings still count toward realized welfare."""
    if any(i >= trace.n_agents or i < 0 for i in byzantine):
        raise InstanceMismatchError("byzantine set names unknown agents")
    return _build_report(trace, types, restricted_optimum, allow_excess=bool(byzantine))


def aggregate(values: Sequence[Fraction], threshold: Fraction) -> ReplicaStats:
    """Replica statistics: minimum, lower median, and the fraction of values
    meeting the threshold."""
    if not values:
        return ReplicaStats(Fraction(0), Fraction(0), Fraction(0))
    ordered = sorted(values)
    passing = sum(1 for v in values if v >= threshold)
    return ReplicaStats(
        ordered[0],
        ordered[(len(ordered) - 1) // 2],
        Fraction(passing, len(values)),
    )
