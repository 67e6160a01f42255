"""The four benchmark workloads.

Each workload makes batches of operations.  `prepare(al, seed, k)` builds
batch k's inputs from the seed (set-up work: generating instances,
building mechanisms and agents, the oracle), `run(al, batch)` performs the
operations and times each call into the program, and `check(al, batch,
ops)` verifies the outputs with the independent checkers in `checks.py`
(plus the program's generic binary-search price, the reference every
closed form must match).  `al` holds the auctionlab modules as
attributes.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import signal
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Any

import checks


@dataclass
class Op:
    raw: float  # host seconds spent inside the program
    seconds: float  # the same, calibrated
    rounds: int  # simulated rounds (auction outcomes for one-shot queries)
    failed: bool
    output: Any


# Host speed on a shared machine drifts by tens of percent within seconds,
# for the program and any other code alike.  Timed work is therefore
# interleaved with a short, fixed, program-independent calibration loop:
# before, after, and every CALIBRATION_INTERVAL_S inside it (from a timer
# signal).  Each stretch of work between two samples is scaled to the host
# speed at which the loop takes CALIBRATION_NOMINAL_S; the samples
# themselves are not counted as work.
CALIBRATION_NOMINAL_S = 0.0014
CALIBRATION_INTERVAL_S = 0.05


def _calibration_step(x: int, y: int) -> int:
    return (x * 7 + y) & 15


def calibration_seconds() -> float:
    """Median host time of three runs of the calibration loop (gc off)."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            started = perf_counter()
            table: dict = {}
            total = 0
            for i in range(4000):
                key = (i & 63, i >> 6)
                table[key] = table.get(key, 0) + _calibration_step(i, total)
                total += len(key)
            samples.append(perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return sorted(samples)[1]


class Calibrated:
    """Raw and calibrated host seconds of the work inside a `with` block.

    `interval` is 0 in traced runs, whose spans must not contain samples:
    there the loop runs only before and after the work."""

    interval = CALIBRATION_INTERVAL_S

    def __enter__(self):
        self.raw = 0.0
        self.seconds = 0.0
        self._last = calibration_seconds()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._mark = perf_counter()
        return self

    def _sample(self, *_):
        work = perf_counter() - self._mark
        calibration = calibration_seconds()
        self.raw += work
        self.seconds += work * CALIBRATION_NOMINAL_S / ((self._last + calibration) / 2)
        self._last = calibration
        self._mark = perf_counter()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def scale(self) -> float:
        return self.seconds / self.raw if self.raw else 1.0


def timed(fn, *args, **kwargs):
    """(raw host seconds, calibrated seconds, result) of one call into the
    program.  An exception is reported on stderr and the result is None:
    the operation counts as failed and the run goes on."""
    with Calibrated() as clock:
        try:
            result = fn(*args, **kwargs)
        except Exception:
            traceback.print_exc()
            result = None
    return clock.raw, clock.seconds, result


def as_pairs(profile):
    return [(d.set_mask, d.bid) for d in profile]


def coin_from_text(al, text: str):
    Coin = al.mechanisms.Coin
    if text.startswith("lottery:"):
        return Coin(lottery_agent=int(text.split(":")[1]) - 1)
    return Coin(ignore_grand=True) if text == "ignore-grand" else al.mechanisms.COIN_NONE


def generic_price(al, mechanism, agent, mask, profile, coin):
    """The base-class binary search, bypassing every closed form."""
    return al.mechanisms.Mechanism.critical_price(mechanism, agent, mask, profile, coin)


def beats(bid: int, price) -> bool:
    if price is None:
        return False
    theta, boundary = price
    return bid > theta if boundary == "open" else bid >= theta


def price_problems(al, mechanism, agent, mask, pay, profile, coin, where) -> list[str]:
    """A charged price must equal the generic search price, and one tick
    above it must still win."""
    generic = generic_price(al, mechanism, agent, mask, profile, coin)
    if generic is None or generic[0] != pay:
        return [f"{where}: agent {agent + 1} paid {pay}, generic search gives {generic}"]
    if not mechanism.wins(agent, mask, pay + 1, profile, coin):
        return [f"{where}: agent {agent + 1} loses one tick above its price {pay}"]
    return []


class Workload:
    """What every workload provides: `name`, `trace_batches`, and
    `prepare`, `run` and `check` as described at the top of this module."""

    min_batches = 1  # whole batches an untraced run makes at least

    def final_problems(self) -> list[str]:
        """Problems that only show over all batches of a run."""
        return []

    def extra_lines(self):
        """Lines printed before the result."""
        return ()


# ---------------------------------------------------------------------------
# scenario-suite
# ---------------------------------------------------------------------------


class ScenarioSuite(Workload):
    """Every built-in scenario through `auctionlab run`, in process."""

    name = "scenario-suite"
    min_batches = 2  # digests must agree across repeats within one invocation
    trace_batches = 1
    samples_per_replica = 6

    def __init__(self, root: Path, out: Path):
        self.scenario_dir = root / "src" / "auctionlab" / "scenarios"
        self.out = out / "scenario-suite"
        self.names = sorted(
            p.name[: -len(".experiment.json")]
            for p in self.scenario_dir.glob("*.experiment.json")
        )
        self.optimum: dict[str, int] = {}
        self.digests: dict[str, dict[str, str]] | None = None

    def prepare(self, al, seed, k):
        batch = []
        for name in self.names:
            experiment = al.cli.load_experiment(name)
            batch.append((name, experiment, experiment.build_mechanism()))
        return batch

    def run(self, al, batch):
        ops = []
        for name, experiment, _ in batch:
            out = self.out / name
            shutil.rmtree(out, ignore_errors=True)
            argv = ["run", name, "--workers", "1", "--out-dir", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                raw, seconds, code = timed(al.cli.main, argv)
            spec = experiment.dynamics_spec
            rounds = spec["rounds"] * spec.get("replicas", 1)
            ops.append(Op(raw, seconds, rounds, code != 0, out))  # code is None if it raised
        return ops

    def _reference(self, name):
        """Types, row cap, summary-optimum cap and byzantine set, read from
        the scenario files."""
        experiment = json.loads((self.scenario_dir / f"{name}.experiment.json").read_text())
        instance = json.loads((self.scenario_dir / experiment["instance"]).read_text())
        _, cap, types = checks.parse_instance(instance)
        mech = experiment["mechanism"]
        oracle_cap = mech.get("s", cap) if mech["kind"] in ("greedy", "filtered-greedy") else None
        overrides = experiment.get("agents", {}).get("overrides", {})
        byzantine = set()
        if experiment.get("acceptance", {}).get("checks", {}).get("byzantine_restricted"):
            byzantine = {int(a) - 1 for a, b in overrides.items() if b == "byzantine"}
        return types, cap, oracle_cap, byzantine

    def check(self, al, batch, ops):
        problems = []
        digests = {}
        for (name, _, mechanism), op in zip(batch, ops):
            if op.failed:
                continue  # counted in `failed`
            types, cap, oracle_cap, byzantine = self._reference(name)
            if name not in self.optimum:
                self.optimum[name] = checks.brute_force_optimum(types, oracle_cap, byzantine)
            optimum = self.optimum[name]
            files = sorted(p for p in op.output.iterdir() if p.is_file())
            digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
            summary = json.loads((op.output / "summary.json").read_text())
            rounds = 0
            for replica in summary["replicas"]:
                text = (op.output / f"trace-replica{replica['replica']}.csv").read_text()
                rows = checks.parse_trace(text, len(types))
                rounds += len(rows)
                where = f"{name} replica {replica['replica']}"
                for row in rows:
                    problems += [f"{where}: {p}" for p in checks.check_row(row, types, cap)]
                    if not byzantine:
                        problems += [f"{where}: {p}" for p in checks.check_optimum_against(
                            optimum, types, row["won"], oracle_cap)]
                problems += [f"{name}: {p}" for p in
                             checks.check_replica_summary(replica, rows, optimum)]
                step = max(1, len(rows) // self.samples_per_replica)
                for row in rows[::step]:
                    problems += self._sampled_prices(al, mechanism, row, where)
            if rounds != op.rounds:
                problems.append(f"{name}: {rounds} trace rows, expected {op.rounds}")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(n for n in digests if digests[n] != self.digests.get(n))
            problems.append(f"trace digests differ between repeats: {changed}")
        return problems

    def _sampled_prices(self, al, mechanism, row, where):
        Declaration, EMPTY = al.core.Declaration, al.core.EMPTY
        profile = tuple(
            Declaration(s, b) if s else EMPTY for s, b in zip(row["sets"], row["bids"])
        )
        coin = coin_from_text(al, row["coin"])
        if coin.lottery_agent is not None:
            return []
        problems = []
        for i, (mask, pay) in enumerate(zip(row["won"], row["pay"])):
            if mask:
                problems += price_problems(
                    al, mechanism, i, mask, pay, profile, coin, f"{where} round {row['round']}"
                )
        return problems

    def extra_lines(self):
        for name, files in sorted((self.digests or {}).items()):
            for file, digest in sorted(files.items()):
                yield f"sha256 {digest}  {name}/{file}"


# ---------------------------------------------------------------------------
# best-response-fleet
# ---------------------------------------------------------------------------


class BestResponseFleet(Workload):
    """Best-response dynamics on seeded random instances shaped like the
    acceptance capped and grand fleets."""

    name = "best-response-fleet"
    trace_batches = 6
    # (kind, agents, items); T = 200 n rounds
    shapes = (("capped", 4, 6), ("capped", 6, 8), ("capped", 8, 10),
              ("grand", 5, 9), ("grand", 6, 16))
    gamma = Fraction(1, 100)

    def prepare(self, al, seed, k):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        gen, mech, agents = al.generate, al.mechanisms, al.agents
        batch = []
        for kind, n, m in self.shapes:
            if kind == "capped":
                types = gen.random_types(rng, n, m, max_atoms=3, max_value=32, max_size=2)
                mechanism, cap = mech.FilteredGreedyMechanism(m, 2), 2
            else:
                size = 3 if m == 9 else 4
                types = gen.random_types(rng, n, m, max_atoms=3, max_value=32, max_size=size,
                                         grand_prob=0.3, grand_max_value=64)
                mechanism, cap = mech.GrandBundleMechanism(m, self.gamma), None
            models = [agents.make_agent(i, t, agents.BestResponder(), mechanism)
                      for i, t in enumerate(types)]
            _, optimum = al.algorithms.optimal_welfare(types, cap)
            config = al.dynamics.RunConfig(mechanism=mechanism, agents=models,
                                           rounds=200 * n, seed=rng.randrange(1 << 32))
            batch.append({"kind": kind, "m": m, "cap": cap, "types": types,
                          "optimum": optimum, "config": config})
        return batch

    def run(self, al, batch):
        ops = []
        for item in batch:
            raw, seconds, trace = timed(al.dynamics.run_best_response_dynamics, item["config"])
            ops.append(Op(raw, seconds, trace.rounds if trace else 0, trace is None, trace))
        return ops

    def check(self, al, batch, ops):
        problems = []
        for item, op in zip(batch, ops):
            if op.failed:
                continue
            types = [t.atoms for t in item["types"]]
            where = f"{item['kind']} m={item['m']} seed={item['config'].seed}"
            optimum = checks.brute_force_optimum(types, item["cap"])
            if optimum != item["optimum"]:
                problems.append(f"{where}: oracle {item['optimum']}, brute force {optimum}")
            grand = (1 << item["m"]) - 1
            # Profiles and allocations repeat across rounds; each distinct one
            # is checked once, each round's welfare is still compared.
            welfare_of: dict = {}
            previous = None
            previous_pairs = [(0, 0)] * len(types)  # the empty start
            total = 0
            for record in op.output.records:
                at = f"{where} round {record.round}"
                if record.profile != previous:
                    profile = as_pairs(record.profile)
                    if not all(checks.truthful(d, t) for d, t in zip(profile, types)):
                        problems.append(f"{at}: untruthful bid {profile}")
                    ok = (checks.separated(profile, types) if item["kind"] == "capped"
                          else checks.separated_by_scale(profile, types, grand))
                    if not ok:
                        problems.append(f"{at}: not separated {profile}")
                    if profile != previous_pairs:
                        problems += self._improves(al, item, record, previous_pairs, where)
                    previous, previous_pairs = record.profile, profile
                alloc = record.outcome.allocation
                if alloc not in welfare_of:
                    welfare_of[alloc] = sum(checks.value_of(t, a) for t, a in zip(types, alloc))
                    if not checks.feasible(alloc, item["cap"]):
                        problems.append(f"{at}: infeasible {alloc}")
                    problems += checks.check_optimum_against(optimum, types, alloc, item["cap"])
                welfare = welfare_of[alloc]
                if welfare != record.true_welfare:
                    problems.append(f"{at}: welfare {record.true_welfare}, recomputed {welfare}")
                total += welfare
            if Fraction(total, len(op.output.records)) > optimum:
                problems.append(f"{where}: average welfare above the optimum {optimum}")
        return problems

    def _improves(self, al, item, record, previous, where):
        """The updater alone changed its bid, and strictly gained expected
        utility, priced by the generic search."""
        u = record.updater
        changed = [i for i, (a, b) in enumerate(zip(previous, as_pairs(record.profile))) if a != b]
        if changed != [u]:
            return [f"{where} round {record.round}: agents {changed} changed, updater {u}"]
        mechanism = item["config"].mechanism
        atoms = item["types"][u].atoms
        Declaration, EMPTY = al.core.Declaration, al.core.EMPTY
        old = Declaration(*previous[u]) if previous[u][0] else EMPTY
        coins = [(Fraction(1), al.mechanisms.COIN_NONE)]
        if item["kind"] == "grand":
            coins = [(self.gamma, al.mechanisms.Coin(ignore_grand=True)),
                     (1 - self.gamma, al.mechanisms.COIN_NONE)]

        def utility(decl):
            total = Fraction(0)
            for weight, coin in coins:
                if decl.set_mask:
                    price = generic_price(al, mechanism, u, decl.set_mask, record.profile, coin)
                    if beats(decl.bid, price):
                        total += weight * (checks.value_of(atoms, decl.set_mask) - price[0])
            return total

        before, after = utility(old), utility(record.profile[u])
        if not after > before:
            return [f"{where} round {record.round}: agent {u + 1} switched from "
                    f"utility {before} to {after}"]
        return []


# ---------------------------------------------------------------------------
# learner-fleet
# ---------------------------------------------------------------------------


class LearnerFleet(Workload):
    """Multiplicative-weights learners on greedy with s = 2, shaped like the
    acceptance learner fleet: the cycle instance plus random instances, each
    with and without one byzantine bidder."""

    name = "learner-fleet"
    trace_batches = 2
    rounds = 5000
    cap = 2
    cycle = [((1 | 2, 4), (8, 6)), ((1, 2), (2 | 4, 5)), ((4, 4),), ((8, 5),)]
    random_sizes = (3, 5)  # agents per random instance

    def __init__(self):
        self.passed = 0
        self.total = 0

    def prepare(self, al, seed, k):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        core, agents, alg = al.core, al.agents, al.algorithms
        instances = [[core.Valuation(atoms) for atoms in self.cycle]]
        for n in self.random_sizes:
            instances.append(al.generate.random_types(
                rng, n, rng.randint(4, 8), max_atoms=3, max_value=32, max_size=2))
        batch = []
        for types in instances:
            n = len(types)
            m = max(2, max(mask for t in types for mask, _ in t.atoms).bit_length())
            mechanism = al.mechanisms.RuleMechanism(alg.greedy_rule(self.cap), m)
            for byzantine in (frozenset(), frozenset({n - 1})):
                models = [
                    agents.make_agent(
                        i, t, agents.ByzantineBidder() if i in byzantine
                        else agents.WeightedLearner(), mechanism)
                    for i, t in enumerate(types)
                ]
                bids = [b for b in alg.atoms_as_bids(types, self.cap) if b[0] not in byzantine]
                _, optimum = alg.optimal_allocation(bids, n, self.cap)
                config = al.dynamics.RunConfig(mechanism=mechanism, agents=models,
                                               rounds=self.rounds, seed=rng.randrange(1 << 32))
                batch.append({"types": types, "byzantine": byzantine,
                              "optimum": optimum, "config": config})
        return batch

    def run(self, al, batch):
        ops = []
        for item in batch:
            raw, seconds, trace = timed(al.dynamics.run_regret_dynamics, item["config"])
            ops.append(Op(raw, seconds, trace.rounds if trace else 0, trace is None, trace))
        return ops

    def check(self, al, batch, ops):
        problems = []
        for item, op in zip(batch, ops):
            if op.failed:
                continue
            types = [t.atoms for t in item["types"]]
            byzantine = item["byzantine"]
            where = f"learners n={len(types)} byzantine={sorted(byzantine)} seed={item['config'].seed}"
            optimum = checks.brute_force_optimum(types, self.cap, byzantine)
            if optimum != item["optimum"]:
                problems.append(f"{where}: oracle {item['optimum']}, brute force {optimum}")
            masks = [{s for s, _ in t} for t in types]
            checked: set = set()
            welfare_of: dict = {}
            total = 0
            for record in op.output.records:
                at = f"{where} round {record.round}"
                if record.profile not in checked:
                    checked.add(record.profile)
                    for i, (s, bid) in enumerate(as_pairs(record.profile)):
                        if not s:
                            continue
                        value = checks.value_of(types[i], s)
                        if s not in masks[i] or not 1 <= bid <= value:
                            problems.append(f"{at}: agent {i + 1} bid {bid} on {s:#x} worth {value}")
                        elif i not in byzantine and bid != value:
                            problems.append(f"{at}: learner {i + 1} bid {bid} off its "
                                            f"candidate value {value}")
                alloc = record.outcome.allocation
                if alloc not in welfare_of:
                    welfare_of[alloc] = sum(checks.value_of(t, a) for t, a in zip(types, alloc))
                    if not checks.feasible(alloc, self.cap):
                        problems.append(f"{at}: infeasible {alloc}")
                    if not byzantine:
                        problems += checks.check_optimum_against(optimum, types, alloc, self.cap)
                welfare = welfare_of[alloc]
                if welfare != record.true_welfare:
                    problems.append(f"{at}: welfare {record.true_welfare}, recomputed {welfare}")
                total += welfare
            average = Fraction(total, len(op.output.records))
            self.total += 1
            self.passed += average >= Fraction(optimum, 4) - Fraction(optimum, 20)
        return problems

    def final_problems(self):
        if self.passed < 0.95 * self.total:
            return [f"only {self.passed}/{self.total} learner runs reach opt/4 - opt/20"]
        return []


# ---------------------------------------------------------------------------
# one-shot-queries
# ---------------------------------------------------------------------------


class OneShotQueries(Workload):
    """A fixed mix of single-shot queries, each on a fresh random instance:
    truthful-vs-deviant expected utility and outcome-with-exact-prices for
    each of the five mechanism kinds, plus two oracle solves."""

    name = "one-shot-queries"
    trace_batches = 100
    kinds = ("greedy", "filtered-greedy", "grand-bundle", "partition", "two-tier")
    oracle_queries = 2
    mixes_per_batch = 8

    def _mechanism(self, al, rng, kind, m):
        mech, alg = al.mechanisms, al.algorithms
        cap = rng.randint(1, 3)
        if kind == "greedy":
            return mech.RuleMechanism(alg.greedy_rule(cap), m)
        if kind == "filtered-greedy":
            return mech.FilteredGreedyMechanism(m, cap)
        if kind == "grand-bundle":
            return mech.GrandBundleMechanism(m, Fraction(1, 100))
        if kind == "partition":
            return mech.RuleMechanism(alg.partition_rule(m, (1 << (m // 2)) - 1, cap), m)
        return mech.RuleMechanism(alg.two_tier_rule(m), m)

    def prepare(self, al, seed, k):
        rng = random.Random(f"{self.name}:{seed}:{k}")
        batch = []
        for _ in range(self.mixes_per_batch):
            batch += self._mix(al, rng)
        return batch

    def _mix(self, al, rng):
        gen, core, mech = al.generate, al.core, al.mechanisms
        batch = []
        for kind in self.kinds:
            n, m = rng.randint(2, 5), rng.randint(3, 8)
            types = gen.random_types(rng, n, m, max_atoms=3, max_value=32, max_size=2)
            i = rng.randrange(n)
            mask = types[i].atoms[rng.randrange(len(types[i].atoms))][0]
            value = types[i].value_of(mask)
            other = rng.choice([v for v in range(33) if v != value])
            batch.append({
                "query": "dominance", "mechanism": self._mechanism(al, rng, kind, m),
                "agent": i, "valuation": types[i],
                "truthful": core.single_minded(mask, value),
                "deviant": core.single_minded(mask, other),
                "others": gen.random_profile(rng, n, m, max_size=2, max_value=32),
            })
            n, m = rng.randint(2, 5), rng.randint(3, 9)
            profile = gen.random_profile(rng, n, m, max_size=3, max_value=24)
            coin = mech.COIN_NONE
            if kind in ("grand-bundle", "two-tier") and rng.random() < 0.3:
                j = rng.randrange(n)
                grand = core.Declaration((1 << m) - 1, rng.randint(1, 48))
                profile = tuple(grand if x == j else d for x, d in enumerate(profile))
            if kind == "grand-bundle" and rng.random() < 0.3:
                coin = mech.Coin(ignore_grand=True)
            batch.append({"query": "outcome", "mechanism": self._mechanism(al, rng, kind, m),
                          "profile": profile, "coin": coin})
        for _ in range(self.oracle_queries):
            n, m = rng.randint(1, 5), rng.randint(2, 8)
            profile = gen.random_profile(rng, n, m, max_size=3, max_value=24)
            bids = [(i, d.set_mask, d.bid) for i, d in enumerate(profile) if not d.is_empty]
            batch.append({"query": "oracle", "bids": bids, "n": n,
                          "cap": rng.choice([None, 2, 3])})
        return batch

    def run(self, al, batch):
        """Queries are too short to calibrate one by one: the whole batch
        shares one calibration bracket."""
        timings = []
        with Calibrated() as clock:
            for q in batch:
                started = perf_counter()
                try:
                    result = getattr(self, "_" + q["query"])(al, q)
                except Exception:
                    traceback.print_exc()
                    result = None
                timings.append((perf_counter() - started, result))
        return [Op(raw, raw * clock.scale, int(q["query"] == "outcome"), result is None, result)
                for q, (raw, result) in zip(batch, timings)]

    def _dominance(self, al, q):
        mechanism, i, others, valuation = q["mechanism"], q["agent"], q["others"], q["valuation"]
        return (mechanism.expected_utility(i, q["truthful"], others, valuation),
                mechanism.expected_utility(i, q["deviant"], others, valuation))

    def _outcome(self, al, q):
        mechanism, profile, coin = q["mechanism"], q["profile"], q["coin"]
        outcome = mechanism.outcome(profile, coin)
        winners = []
        for i, mask in enumerate(outcome.allocation):
            if not mask:
                continue
            fast = mechanism.critical_price(i, mask, profile, coin)
            generic = generic_price(al, mechanism, i, mask, profile, coin)
            theta = fast[0]
            losing = theta if fast[1] == "open" else theta - 1
            loses = not mechanism.wins(i, mask, losing, profile, coin) if losing >= 1 else True
            wins_above = mechanism.wins(i, mask, theta + 1, profile, coin)
            winners.append((i, fast, generic, loses, wins_above))
        return outcome, winners

    def _oracle(self, al, q):
        return al.algorithms.optimal_allocation(q["bids"], q["n"], q["cap"])

    def check(self, al, batch, ops):
        problems = []
        for q, op in zip(batch, ops):
            if op.failed:
                continue
            name = q.get("mechanism").name if "mechanism" in q else "oracle"
            where = f"{q['query']} {name}"
            if q["query"] == "dominance":
                truthful, deviant = op.output
                if deviant > truthful:
                    problems.append(f"{where}: deviant {deviant} beats truthful {truthful}")
            elif q["query"] == "outcome":
                outcome, winners = op.output
                bids = as_pairs(q["profile"])
                if not checks.feasible(outcome.allocation):
                    problems.append(f"{where}: infeasible {outcome.allocation}")
                for i, fast, generic, loses, wins_above in winners:
                    if outcome.payments[i] != fast[0] or fast != generic:
                        problems.append(f"{where}: agent {i + 1} paid {outcome.payments[i]}, "
                                        f"fast {fast}, generic {generic}")
                    if not (loses and wins_above):
                        problems.append(f"{where}: agent {i + 1} price {fast} is not exact")
                    if fast[0] > bids[i][1]:
                        problems.append(f"{where}: agent {i + 1} pays above its bid")
                for i, (mask, pay) in enumerate(zip(outcome.allocation, outcome.payments)):
                    if not mask and pay:
                        problems.append(f"{where}: loser {i + 1} pays {pay}")
            else:
                alloc, welfare = op.output
                types = [[] for _ in range(q["n"])]
                for i, s, v in q["bids"]:
                    types[i].append((s, v))
                optimum = checks.brute_force_optimum(types, q["cap"])
                got = sum(checks.value_of(t, a) for t, a in zip(types, alloc))
                if welfare != optimum or got != optimum or not checks.feasible(alloc, q["cap"]):
                    problems.append(f"{where}: oracle {welfare} with {alloc}, brute force {optimum}")
        return problems


def make(name: str, root: Path, out: Path):
    if name == "scenario-suite":
        return ScenarioSuite(root, out)
    return {"best-response-fleet": BestResponseFleet, "learner-fleet": LearnerFleet,
            "one-shot-queries": OneShotQueries}[name]()


WORKLOADS = ("scenario-suite", "best-response-fleet", "learner-fleet", "one-shot-queries")
