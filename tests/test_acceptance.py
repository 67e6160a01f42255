"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance, with a PASS/FAIL line per criterion in the terminal summary.

The statistical criteria run seeded fleets at desk scale; fleets shared by
several criteria are computed once in module-scoped fixtures.
"""
import time
from fractions import Fraction

import pytest

from auctionlab import (
    EMPTY,
    BestResponder,
    ByzantineBidder,
    Declaration,
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    RuleMechanism,
    Valuation,
    WeightedLearner,
    external_regret,
    full_mask,
    greedy_rule,
    make_agent,
    optimal_allocation,
    optimal_welfare,
    partition_rule,
    separated_flags,
    single_minded,
)
from auctionlab.algorithms import atoms_as_bids
from auctionlab.core import declared_welfare
from auctionlab.dynamics import (
    RunConfig,
    constant_tail_start,
    run_best_response_dynamics,
    run_regret_dynamics,
    seeded_rng,
)
from auctionlab.generate import random_profile, random_types
from auctionlab.mechanisms import COIN_NONE, Coin

from conftest import A, B, C, D, record_acceptance
from test_algorithms import naive_optimal

CYCLE_TYPES = [
    Valuation([(A | B, 4), (D, 6)]),
    Valuation([(A, 2), (B | C, 5)]),
    Valuation([(C, 4)]),
    Valuation([(D, 5)]),
]


def mw_average_welfare(types, mechanism, rounds, seed, byzantine=()):
    agents = [
        make_agent(
            i, t, ByzantineBidder() if i in byzantine else WeightedLearner(), mechanism
        )
        for i, t in enumerate(types)
    ]
    cfg = RunConfig(mechanism=mechanism, agents=agents, rounds=rounds, seed=seed)
    trace = run_regret_dynamics(cfg)
    return Fraction(sum(r.true_welfare for r in trace.records), trace.rounds)


# ---------------------------------------------------------------------------
# Shared fleets
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def capped_fleet():
    """Best-response runs on the filtered-greedy mechanism: 20 instances,
    s = 2, T = 200 n, 50 seeds each."""
    runs = []
    gen = seeded_rng(2026, "fleet-capped")
    for k in range(20):
        n = gen.randint(3, 8)
        m = gen.randint(6, 10)
        types = random_types(gen, n, m, max_atoms=3, max_value=32, max_size=2)
        mech = FilteredGreedyMechanism(m, 2)
        target, optimum = optimal_welfare(types, 2)
        goals = [t.value_of(target[i]) for i, t in enumerate(types)]
        for seed in range(50):
            agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
            cfg = RunConfig(
                mechanism=mech, agents=agents, rounds=200 * n, seed=seed * 977 + k
            )
            trace = run_best_response_dynamics(cfg)
            profiles = trace.profiles()
            separated = all(all(separated_flags(p, types)) for p in dict.fromkeys(profiles))
            hits = [0] * n
            for profile in profiles:
                for i, d in enumerate(profile):
                    goal = goals[i]
                    if 2 * d.bid >= goal:
                        hits[i] += 1
                        continue
                    pressure = sum(
                        o.bid
                        for j, o in enumerate(profile)
                        if j != i and o.set_mask & target[i]
                    )
                    if 2 * pressure >= goal:
                        hits[i] += 1
            runs.append(
                {
                    "optimum": optimum,
                    "average": Fraction(sum(r.true_welfare for r in trace.records), trace.rounds),
                    "separated": separated,
                    "min_step_fraction": min(
                        (Fraction(h, trace.rounds) for h in hits), default=Fraction(1)
                    ),
                }
            )
    return runs


@pytest.fixture(scope="module")
def grand_fleet():
    """Best-response runs on the grand-bundle mechanism: 20 instances over
    9 or 16 items, gamma = 1/100, T = 200 n, 50 seeds each."""
    runs = []
    gen = seeded_rng(2026, "fleet-grand")
    for k in range(20):
        n = gen.randint(4, 8)
        m = 9 if k % 2 == 0 else 16
        cap = 3 if m == 9 else 4
        types = random_types(
            gen, n, m, max_atoms=3, max_value=32, max_size=cap,
            grand_prob=0.3, grand_max_value=64,
        )
        mech = GrandBundleMechanism(m, Fraction(1, 100))
        _, optimum = optimal_welfare(types)
        grand = full_mask(m)
        for seed in range(50):
            agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
            cfg = RunConfig(
                mechanism=mech, agents=agents, rounds=200 * n, seed=seed * 1013 + k
            )
            trace = run_best_response_dynamics(cfg)
            full_ok = True
            scale_ok = True
            for profile in dict.fromkeys(trace.profiles()):
                if not all(separated_flags(profile, types)):
                    full_ok = False
                small = tuple(d if d.set_mask != grand else EMPTY for d in profile)
                big = tuple(d if d.set_mask == grand else EMPTY for d in profile)
                if not (
                    all(separated_flags(small, types)) and all(separated_flags(big, types))
                ):
                    scale_ok = False
            runs.append(
                {
                    "m": m,
                    "optimum": optimum,
                    "average": Fraction(sum(r.true_welfare for r in trace.records), trace.rounds),
                    "separated_full": full_ok,
                    "separated_by_scale": scale_ok,
                }
            )
    return runs


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_c01_truthful_bid_dominance():
    """Truthful single-minded bids are never strictly beaten by another bid
    on the same set: 10^4 instances x 100 opponent profiles, under a minute."""
    started = time.time()
    rng = seeded_rng(1, "dominance")
    comparisons = 0
    for trial in range(10_000):
        n = rng.randint(2, 5)
        m = rng.randint(3, 8)
        types = random_types(rng, n, m, max_atoms=3, max_value=32, max_size=2)
        pick = trial % 7
        if pick < 3:
            mechanism = RuleMechanism(greedy_rule(pick + 1), m)
        elif pick < 6:
            mechanism = FilteredGreedyMechanism(m, pick - 2)
        else:
            mechanism = GrandBundleMechanism(m, Fraction(1, 100))
        i = rng.randrange(n)
        atoms = types[i].atoms
        mask = atoms[rng.randrange(len(atoms))][0]
        truthful_value = types[i].value_of(mask)
        other_value = rng.randint(0, 32)
        while other_value == truthful_value:
            other_value = rng.randint(0, 32)
        truthful = single_minded(mask, truthful_value)
        deviant = single_minded(mask, other_value)
        for _ in range(100):
            others = random_profile(rng, n, m, max_size=2, max_value=32)
            u_truthful = mechanism.expected_utility(i, truthful, others, types[i])
            u_deviant = mechanism.expected_utility(i, deviant, others, types[i])
            comparisons += 1
            assert u_deviant <= u_truthful, (
                f"bid {other_value} on {mask:#x} beats the truthful {truthful_value} "
                f"under {mechanism.name} against {others}"
            )
    elapsed = time.time() - started
    assert elapsed < 60, f"dominance suite took {elapsed:.1f}s"
    record_acceptance(1, "truthful-bid-dominance", f"{comparisons} comparisons, {elapsed:.0f}s")


def _random_feasible_target(rng, profile, cap):
    order = list(range(len(profile)))
    rng.shuffle(order)
    used = 0
    target = [0] * len(profile)
    for i in order:
        s = profile[i].set_mask
        if s and not s & used and s.bit_count() <= cap and rng.random() < 0.8:
            target[i] = s
            used |= s
    return tuple(target)


def test_c02_threshold_sum_inequality():
    """The capped greedy rule's declared welfare, scaled by its factor,
    covers the threshold sum of the oracle-optimal target allocation:
    10^4 profiles per cap, zero violations."""
    for s in (1, 2, 3):
        mech = RuleMechanism(greedy_rule(s), 8)
        for k in range(10_000):
            rng = seeded_rng(k, "threshold-sum", s)
            n = rng.randint(2, 5)
            profile = random_profile(rng, n, 8, max_size=s, max_value=32)
            bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
            targets = [optimal_allocation(bids, n, cap=s)[0]]
            targets.append(_random_feasible_target(rng, profile, s))
            lhs = (s + 1) * declared_welfare(mech.allocate(profile), profile)
            for target in targets:
                rhs = 0
                for i, mask in enumerate(target):
                    if mask:
                        rhs += mech.critical_price(i, mask, profile)[0]
                assert lhs >= rhs, (s, profile, target)
    record_acceptance(2, "threshold-sum-inequality", "6*10^4 profile/target pairs, exact")


@pytest.fixture(scope="module")
def learner_fleet():
    """Regret-minimization runs over the cycle instance plus 20 random
    instances: s = 2, T = 2*10^4, 10 seeds each, with and without one
    byzantine bidder."""
    gen = seeded_rng(2026, "fleet-learner")
    instances = [CYCLE_TYPES]
    while len(instances) < 21:
        n = gen.randint(2, 6)
        m = gen.randint(4, 8)
        instances.append(random_types(gen, n, m, max_atoms=3, max_value=32, max_size=2))
    plain, resilient = [], []
    plain_elapsed = 0.0
    for types in instances:
        n = len(types)
        m = max(2, max(mask for t in types for mask, _ in t.atoms).bit_length())
        mech = RuleMechanism(greedy_rule(2), m)
        _, optimum = optimal_welfare(types, 2)
        byz = {n - 1}
        restricted_bids = [b for b in atoms_as_bids(types, 2) if b[0] not in byz]
        _, restricted_optimum = optimal_allocation(restricted_bids, n, cap=2)
        for seed in range(10):
            started = time.time()
            plain.append(
                (mw_average_welfare(types, mech, 20_000, seed * 71 + 5), optimum)
            )
            plain_elapsed += time.time() - started
            resilient.append(
                (
                    mw_average_welfare(types, mech, 20_000, seed * 83 + 7, byzantine=byz),
                    restricted_optimum,
                )
            )
    return {"plain": plain, "resilient": resilient, "plain_elapsed": plain_elapsed}


def test_c03_average_welfare_under_learning(learner_fleet):
    """Average true welfare of weighted learners reaches SW_opt/(s+2) minus
    5 percent of SW_opt in at least 95 percent of 210 seeded runs, with the
    210 runs themselves taking under five minutes."""
    runs = learner_fleet["plain"]
    passed = sum(
        1 for average, optimum in runs if average >= Fraction(optimum, 4) - Fraction(optimum, 20)
    )
    elapsed = learner_fleet["plain_elapsed"]
    assert len(runs) == 210
    assert passed >= 0.95 * len(runs), f"{passed}/210 runs met the bound"
    assert elapsed < 300, f"the 210 learning runs took {elapsed:.0f}s"
    record_acceptance(
        3, "learning-average-welfare", f"{passed}/210 runs, {elapsed:.0f}s"
    )


def test_c04_byzantine_resilience(learner_fleet):
    """With one byzantine bidder, average welfare still reaches a quarter of
    the optimum restricted to the learning bidders, minus 5 percent, in at
    least 95 percent of runs."""
    runs = learner_fleet["resilient"]
    passed = sum(
        1 for average, optimum in runs if average >= Fraction(optimum, 4) - Fraction(optimum, 20)
    )
    assert len(runs) == 210
    assert passed >= 0.95 * len(runs), f"{passed}/210 resilience runs met the bound"
    record_acceptance(4, "byzantine-resilience", f"{passed}/210 runs")


def test_c05_best_response_cycle_and_non_convergence():
    """The scripted order reproduces the exact four-profile cycle with both
    documented utility jumps from 1 to 2, and random-order play never settles
    within 10^4 rounds on any seed."""
    mech = RuleMechanism(greedy_rule(2), 4)
    agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(CYCLE_TYPES)]

    state_1 = (Declaration(D, 6), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))
    state_2 = (Declaration(D, 6), Declaration(A, 2), Declaration(C, 4), Declaration(D, 5))
    state_3 = (Declaration(A | B, 4), Declaration(A, 2), Declaration(C, 4), Declaration(D, 5))
    state_4 = (Declaration(A | B, 4), Declaration(B | C, 5), Declaration(C, 4), Declaration(D, 5))

    cfg = RunConfig(mechanism=mech, agents=agents, rounds=13, seed=0,
                    scripted_order=[2, 3, 0, 1, 0] + [1, 0] * 4)
    trace = run_best_response_dynamics(cfg)
    assert [r.profile for r in trace.records[4:9]] == [
        state_1, state_2, state_3, state_4, state_1,
    ]
    from auctionlab.dynamics import detect_cycle

    assert detect_cycle(trace) == (4, 4)

    # the two documented utility improvements
    assert mech.expected_utility(1, state_1[1], state_1, CYCLE_TYPES[1]) == 1
    assert mech.expected_utility(1, state_2[1], state_1, CYCLE_TYPES[1]) == 2
    assert mech.expected_utility(0, state_2[0], state_2, CYCLE_TYPES[0]) == 1
    assert mech.expected_utility(0, state_3[0], state_2, CYCLE_TYPES[0]) == 2

    # random order from the warmed-up state (all four bidders active): the
    # dynamics never settle on any seed
    for seed in range(10):
        agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(CYCLE_TYPES)]
        cfg = RunConfig(
            mechanism=mech, agents=agents, rounds=10_000, seed=seed,
            initial_profile=state_1,
        )
        random_trace = run_best_response_dynamics(cfg)
        tail = constant_tail_start(random_trace)
        assert random_trace.rounds - tail < 200, f"seed {seed} settled at round {tail}"
        assert len(set(r.profile for r in random_trace.records)) == 4
    record_acceptance(5, "cycle-and-non-convergence", "exact 4-cycle, 10 seeds unsettled")


def test_c06_separation_filtered_greedy(capped_fleet):
    """Every round of every filtered-greedy best-response run from the empty
    start is separated."""
    assert all(run["separated"] for run in capped_fleet)
    record_acceptance(6, "separation-filtered-greedy", f"{len(capped_fleet)} runs, 100% of rounds")


def test_c06_separation_grand_bundle(grand_fleet):
    """Full-profile separation on grand-bundle runs, as stated.

    Known red: a winning grand bid must only exceed the other grand bids and
    the filtered small welfare, not the sum of all intersecting bids, so
    reachable profiles violate the whole-profile check.  The per-scale
    variant (small projection and grand projection separately) is printed
    alongside and holds at 100%.
    """
    by_scale = sum(1 for run in grand_fleet if run["separated_by_scale"])
    full = sum(1 for run in grand_fleet if run["separated_full"])
    print(
        f"grand-bundle separation: full-profile in {full}/{len(grand_fleet)} runs, "
        f"per-scale in {by_scale}/{len(grand_fleet)} runs"
    )
    assert by_scale == len(grand_fleet), "per-scale separation must hold everywhere"
    assert full == len(grand_fleet), (
        f"full-profile separation held in only {full}/{len(grand_fleet)} runs; "
        "winning grand bids are priced against other grand bids and the filtered "
        "small welfare, not the sum of all intersecting bids"
    )
    record_acceptance(6, "separation-grand-bundle", f"{len(grand_fleet)} runs")


def test_c07_capped_best_response_welfare(capped_fleet):
    """Average welfare of capped best-response runs meets the stated
    (1/(8(s+1)) - 0.1) fraction of the optimum in at least 90 percent of
    runs (the stated tolerance is non-binding for s = 2; measured ratios are
    reported)."""
    threshold = Fraction(1, 8 * 3) - Fraction(1, 10)
    passed = sum(
        1 for run in capped_fleet if run["average"] >= threshold * run["optimum"]
    )
    ratios = sorted(run["average"] / run["optimum"] for run in capped_fleet)
    median = ratios[len(ratios) // 2]
    assert len(capped_fleet) == 1000
    assert passed >= 0.9 * len(capped_fleet)
    record_acceptance(
        7,
        "capped-best-response-welfare",
        f"{passed}/1000 runs, median ratio {float(median):.3f}",
    )


def test_c08_grand_bundle_best_response_welfare(grand_fleet):
    """Average welfare of grand-bundle best-response runs meets the stated
    (1/(16(ceil(sqrt(m))+1)) - 0.1) fraction of the optimum in at least 90
    percent of runs (non-binding at these sizes; measured ratios reported)."""
    passed = 0
    for run in grand_fleet:
        root = 3 if run["m"] == 9 else 4
        threshold = Fraction(1, 16 * (root + 1)) - Fraction(1, 10)
        if run["average"] >= threshold * run["optimum"]:
            passed += 1
    ratios = sorted(run["average"] / run["optimum"] for run in grand_fleet)
    median = ratios[len(ratios) // 2]
    assert len(grand_fleet) == 1000
    assert passed >= 0.9 * len(grand_fleet)
    record_acceptance(
        8,
        "grand-bundle-best-response-welfare",
        f"{passed}/1000 runs, median ratio {float(median):.3f}",
    )


def test_c09_step_fraction_bound(capped_fleet):
    """In the capped best-response runs, every agent is pressured-or-committed
    in at least (1/2 - 0.1) of the rounds, in at least 90 percent of runs."""
    want = Fraction(1, 2) - Fraction(1, 10)
    passed = sum(1 for run in capped_fleet if run["min_step_fraction"] >= want)
    assert passed >= 0.9 * len(capped_fleet), f"{passed}/{len(capped_fleet)}"
    record_acceptance(9, "step-fraction-bound", f"{passed}/{len(capped_fleet)} runs")


def test_c10_payment_threshold_exactness():
    """For 10^4 mechanism runs: every winner loses when lowered to the charged
    threshold (open) or one tick below it (closed), and always wins one tick
    above.  Zero violations."""
    rng = seeded_rng(10, "payment-exactness")
    winners_checked = 0
    for trial in range(10_000):
        pick = trial % 7
        m = rng.randint(3, 9)
        if pick < 3:
            mechanism = RuleMechanism(greedy_rule(pick + 1), m)
        elif pick < 6:
            mechanism = FilteredGreedyMechanism(m, pick - 2)
        else:
            mechanism = GrandBundleMechanism(m, Fraction(1, 100))
        n = rng.randint(2, 5)
        profile = random_profile(rng, n, m, max_size=3, max_value=24)
        if isinstance(mechanism, GrandBundleMechanism):
            coin = Coin(ignore_grand=True) if rng.random() < 0.3 else COIN_NONE
            if rng.random() < 0.3:
                k = rng.randrange(n)
                profile = tuple(
                    Declaration(full_mask(m), rng.randint(1, 48)) if j == k else d
                    for j, d in enumerate(profile)
                )
        else:
            coin = COIN_NONE
        out = mechanism.outcome(profile, coin)
        for i, mask in enumerate(out.allocation):
            if not mask:
                continue
            winners_checked += 1
            theta, boundary = mechanism.critical_price(i, mask, profile, coin)
            assert out.payments[i] == theta
            losing_bid = theta if boundary == "open" else theta - 1
            if losing_bid >= 1:
                assert not mechanism.wins(i, mask, losing_bid, profile, coin), (
                    mechanism.name, i, profile, coin,
                )
            assert mechanism.wins(i, mask, theta + 1, profile, coin), (
                mechanism.name, i, profile, coin,
            )
    record_acceptance(10, "payment-threshold-exactness", f"{winners_checked} winners checked")


def test_c11_oracle_matches_naive_enumeration():
    """The memoized oracle equals plain exhaustive enumeration on 10^3 random
    instances with up to 8 items and 5 agents."""
    rng = seeded_rng(11, "oracle-equivalence")
    for _ in range(1000):
        n = rng.randint(1, 5)
        m = rng.randint(2, 8)
        profile = random_profile(rng, n, m, max_size=3, max_value=24)
        bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
        cap = rng.choice([None, 2, 3])
        assert optimal_allocation(bids, n, cap) == naive_optimal(bids, n, cap)
    record_acceptance(11, "oracle-vs-enumeration", "10^3 instances, exact match")


def test_c12_partition_equilibrium_regression():
    """At the stuck profile of the partitioned counterexample nobody regrets
    anything, and the welfare ratio equals the exact rationals implied by the
    instance, against both the unrestricted and the partition-feasible
    optimum."""
    m, half = 8, 4
    side_a = (1 << half) - 1
    side_b = full_mask(m) & ~side_a
    grand_value, unit_value = 10, 9  # one tick of shading: epsilon = 1/10
    types = [Valuation([(side_b, grand_value)])] + [
        Valuation([(1 << j, unit_value)]) for j in range(half)
    ]
    mech = RuleMechanism(partition_rule(m, side_a, cap=half), m)
    agents = [make_agent(i, t, BestResponder(), mech) for i, t in enumerate(types)]
    stuck = (Declaration(side_b, grand_value),) + (EMPTY,) * half

    cfg = RunConfig(
        mechanism=mech, agents=agents, rounds=40, seed=3, initial_profile=stuck
    )
    trace = run_best_response_dynamics(cfg)
    assert all(r.profile == stuck for r in trace.records), "the profile is not stuck"

    for model in agents:
        regret = external_regret(trace.history_for(model.index), model, mech)
        assert regret == 0

    average = Fraction(sum(r.true_welfare for r in trace.records), trace.rounds)
    _, unrestricted = optimal_welfare(types)
    assert unrestricted == half * unit_value + grand_value
    assert average / unrestricted == Fraction(2 * grand_value, m * unit_value + 2 * grand_value)
    assert average / unrestricted == Fraction(5, 23)

    restricted_bids = [(i + 1, 1 << j, unit_value) for i, j in enumerate(range(half))]
    _, partition_optimum = optimal_allocation(restricted_bids, half + 1)
    assert average / partition_optimum == Fraction(grand_value, half * unit_value)
    record_acceptance(12, "partition-equilibrium-regression", "exact rational ratios")
