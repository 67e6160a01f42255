"""Simulation laboratory for repeated combinatorial auctions."""

from .core import (
    EMPTY,
    MAX_ITEMS,
    AuctionError,
    Declaration,
    FeasibilityError,
    Outcome,
    Profile,
    SizeError,
    ValidationError,
    Valuation,
    bundle_from_items,
    bundle_items,
    bundle_key,
    declared_welfare,
    feasible,
    full_mask,
    single_minded,
    social_welfare,
)
from .algorithms import (
    CLOSED,
    OPEN,
    AllocationRule,
    greedy_allocate,
    greedy_rule,
    optimal_allocation,
    optimal_welfare,
    partition_rule,
    two_tier_rule,
)
from .mechanisms import (
    COIN_NONE,
    Coin,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    Mechanism,
    NonMonotoneDecisionError,
    RuleMechanism,
    search_critical_price,
    separated_flags,
)
from .agents import (
    AgentModel,
    BestResponder,
    ByzantineBidder,
    PerturbedLearner,
    WeightedLearner,
    best_response,
    byzantine_bid,
    external_regret,
    make_agent,
    undominated_bid,
)
from .dynamics import (
    RunConfig,
    Trace,
    constant_tail_start,
    detect_cycle,
    run_best_response_dynamics,
    run_regret_dynamics,
    seeded_rng,
)
from .metrics import (
    WelfareReport,
    aggregate,
    coverage_report,
    regret_report,
    resilience_report,
    welfare_report,
)

__version__ = "0.1.0"
