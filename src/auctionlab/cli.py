"""Command-line entry point: instance/experiment loading, the built-in
scenario library, batch replica execution, and trace/summary export.

File formats (JSON, documented in the README):

Instance::

    {"m": 4, "items": ["a", "b", "c", "d"], "s": 2,
     "agents": [{"id": 1, "atoms": [{"items": ["a", "b"], "value": 4}]}]}

Experiment::

    {"instance": "appendix_c.instance.json",
     "mechanism": {"kind": "greedy", "s": 2},
     "dynamics": {"kind": "best-response", "rounds": 100, "seed": 7,
                  "replicas": 5},
     "agents": {"default": "best-response", "overrides": {}},
     "acceptance": {"epsilon": "1/10", "checks": {...}}}

Rationals are written as "p/q" strings; all trace columns are integers, so
CSV exports are byte-identical across platforms for the same config.
"""
from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path
from typing import Any, Optional, Sequence

from .agents import (
    AgentModel,
    BestResponder,
    ByzantineBidder,
    PerturbedLearner,
    WeightedLearner,
    make_agent,
)
from .algorithms import greedy_rule, optimal_welfare, partition_rule, two_tier_rule, atoms_as_bids, optimal_allocation
from .core import (
    EMPTY,
    MAX_ITEMS,
    Declaration,
    ValidationError,
    Valuation,
    bundle_from_items,
    bundle_items,
    single_minded,
)
from .dynamics import (
    ALL_AGENTS,
    RunConfig,
    Trace,
    constant_tail_start,
    detect_cycle,
    replica_seeds,
    run_best_response_dynamics,
    run_regret_dynamics,
)
from .mechanisms import (
    FilteredGreedyMechanism,
    GrandBundleMechanism,
    Mechanism,
    RuleMechanism,
    separated_flags,
)
from .metrics import aggregate, coverage_report, regret_report, resilience_report, welfare_report

MECHANISM_KINDS = ("greedy", "filtered-greedy", "grand-bundle", "partition", "two-tier")
BEHAVIOR_KINDS = ("best-response", "mw", "fpl", "byzantine")


def parse_fraction(value: Any, where: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"{where}: expected an integer or 'p/q' rational, got {value!r}")


def format_fraction(value: Fraction | int) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


@dataclass
class Instance:
    item_count: int
    labels: tuple[str, ...]
    cap: Optional[int]
    types: list[Valuation]

    def mask_for(self, names: Sequence, where: str) -> int:
        indices = []
        for name in names:
            if isinstance(name, int):
                if not 0 <= name < self.item_count:
                    raise ValidationError(f"{where}: item index {name} out of range")
                indices.append(name)
                continue
            try:
                indices.append(self.labels.index(name))
            except ValueError:
                raise ValidationError(f"{where}: unknown item {name!r}") from None
        return bundle_from_items(indices, self.item_count)

    def names_for(self, mask: int) -> list[str]:
        return [self.labels[j] for j in bundle_items(mask)]


def _object(data: Any, where: str) -> dict:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    return data


def _require(data: Any, key: str, where: str):
    if key not in _object(data, where):
        raise ValidationError(f"{where}: missing required key '{key}'")
    return data[key]


def parse_instance(data: dict, where: str = "instance") -> Instance:
    m = _require(data, "m", where)
    if not isinstance(m, int) or not 0 <= m <= MAX_ITEMS:
        raise ValidationError(f"{where}.m: must be an integer in [0, {MAX_ITEMS}]")
    labels = data.get("items")
    if labels is None:
        labels = [str(j) for j in range(m)]
    if len(labels) != m or len(set(labels)) != m:
        raise ValidationError(f"{where}.items: need {m} distinct labels")
    cap = data.get("s")
    if cap is not None and (not isinstance(cap, int) or cap < 1):
        raise ValidationError(f"{where}.s: must be a positive integer")
    agents = data.get("agents", [])
    if not isinstance(agents, list):
        raise ValidationError(f"{where}.agents: expected a list")
    instance = Instance(m, tuple(labels), cap, [])
    for k, spec in enumerate(agents):
        aw = f"{where}.agents[{k}]"
        aid = _require(spec, "id", aw)
        if aid != k + 1:
            raise ValidationError(f"{aw}.id: ids must be contiguous from 1, expected {k + 1}")
        atoms = _require(spec, "atoms", aw)
        if not atoms:
            raise ValidationError(f"{aw}.atoms: must not be empty")
        pairs = []
        for a, atom in enumerate(atoms):
            bw = f"{aw}.atoms[{a}]"
            value = _require(atom, "value", bw)
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"{bw}.value: must be a positive integer tick count")
            mask = instance.mask_for(_require(atom, "items", bw), bw)
            if mask == 0:
                raise ValidationError(f"{bw}.items: must not be empty")
            pairs.append((mask, value))
        try:
            instance.types.append(Valuation(pairs))
        except ValidationError as exc:
            raise ValidationError(f"{aw}: {exc}") from None
    return instance


def load_instance(path: Path) -> Instance:
    data = _read_json(path)
    return parse_instance(data, where=str(path))


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


# ---------------------------------------------------------------------------
# Experiment files
# ---------------------------------------------------------------------------


@dataclass
class Experiment:
    name: str
    instance: Instance
    mechanism_spec: dict
    dynamics_spec: dict
    behaviors: list[str]
    epsilon: Fraction
    checks: dict

    def build_mechanism(self) -> Mechanism:
        try:
            return self._build_mechanism()
        except ValidationError as exc:
            raise ValidationError(f"{self.name}.mechanism: {exc}") from None

    def _build_mechanism(self) -> Mechanism:
        spec = self.mechanism_spec
        kind = spec["kind"]
        m = self.instance.item_count
        cap = spec.get("s", self.instance.cap)
        lottery = spec.get("appendix_b_lottery")
        lottery = parse_fraction(lottery, "appendix_b_lottery") if lottery is not None else None
        if kind == "greedy":
            return RuleMechanism(greedy_rule(cap), m)
        if kind == "two-tier":
            return RuleMechanism(two_tier_rule(m), m)
        if kind == "partition":
            side = self.instance.mask_for(spec["partition_a"], "partition_a")
            return RuleMechanism(partition_rule(m, side, cap), m)
        if kind == "filtered-greedy":
            if cap is None:
                raise ValidationError("s: filtered-greedy needs a cardinality cap")
            return FilteredGreedyMechanism(m, cap, lottery)
        if kind == "grand-bundle":
            return GrandBundleMechanism(m, parse_fraction(spec["gamma"], "gamma"), lottery)
        raise ValidationError(f"kind: unknown kind {kind!r}")

    def build_agents(self, mechanism: Mechanism) -> list[AgentModel]:
        behaviors = {
            "best-response": BestResponder(),
            "mw": WeightedLearner(),
            "fpl": PerturbedLearner(),
            "byzantine": ByzantineBidder(),
        }
        return [
            make_agent(i, t, behaviors[b], mechanism)
            for i, (t, b) in enumerate(zip(self.instance.types, self.behaviors))
        ]

    def byzantine_set(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.behaviors) if b == "byzantine")

    def oracle_cap(self) -> Optional[int]:
        kind = self.mechanism_spec["kind"]
        if kind in ("greedy", "filtered-greedy"):
            return self.mechanism_spec.get("s", self.instance.cap)
        return None

    def initial_profile(self) -> Optional[tuple[Declaration, ...]]:
        initial = self.dynamics_spec.get("initial")
        if initial is None:
            return None
        where = f"{self.name}.dynamics.initial"
        decls = [EMPTY] * len(self.instance.types)
        for entry in initial:
            aid = _require(entry, "id", where)
            if not isinstance(aid, int) or not 1 <= aid <= len(decls):
                raise ValidationError(f"{where}: unknown agent id {aid!r}")
            mask = self.instance.mask_for(_require(entry, "items", where), where)
            bid = _require(entry, "bid", where)
            if not isinstance(bid, int) or bid < 0:
                raise ValidationError(f"{where}: bid must be a non-negative integer")
            decls[aid - 1] = single_minded(mask, bid)
        return tuple(decls)

    def run_config(self, seed: int) -> RunConfig:
        """The engine configuration of one replica.  `validate` builds it
        too, so both commands reject the same experiments."""
        mechanism = self.build_mechanism()
        spec = self.dynamics_spec
        order = spec.get("scripted_order")
        return RunConfig(
            mechanism=mechanism,
            agents=self.build_agents(mechanism),
            rounds=spec["rounds"],
            seed=seed,
            empty_start=spec.get("empty_start", True),
            keep_on_tie=spec.get("keep_on_tie", True),
            scripted_order=[a - 1 for a in order] if order else None,
            initial_profile=self.initial_profile(),
        )


def parse_experiment(data: dict, instance: Instance, name: str) -> Experiment:
    mech = _require(data, "mechanism", name)
    kind = _require(mech, "kind", f"{name}.mechanism")
    if kind not in MECHANISM_KINDS:
        raise ValidationError(f"{name}.mechanism.kind: unknown kind {kind!r}")
    if kind == "grand-bundle" and "gamma" not in mech:
        raise ValidationError(f"{name}.mechanism: grand-bundle requires gamma")
    if kind == "partition" and "partition_a" not in mech:
        raise ValidationError(f"{name}.mechanism: partition requires partition_a")
    if kind != "grand-bundle" and "gamma" in mech:
        raise ValidationError(f"{name}.mechanism: gamma is only valid for grand-bundle")
    if "appendix_b_lottery" in mech and kind not in ("filtered-greedy", "grand-bundle"):
        raise ValidationError(
            f"{name}.mechanism: the lottery applies only to filtered-greedy and grand-bundle"
        )

    dyn = _require(data, "dynamics", name)
    dkind = _require(dyn, "kind", f"{name}.dynamics")
    if dkind not in ("best-response", "regret"):
        raise ValidationError(f"{name}.dynamics.kind: unknown kind {dkind!r}")
    rounds = _require(dyn, "rounds", f"{name}.dynamics")
    if not isinstance(rounds, int) or rounds < 1:
        raise ValidationError(f"{name}.dynamics.rounds: must be a positive integer")
    replicas = dyn.get("replicas", 1)
    if not isinstance(replicas, int) or replicas < 1:
        raise ValidationError(f"{name}.dynamics.replicas: must be a positive integer")
    order = dyn.get("scripted_order")
    if order is not None:
        if not order:
            raise ValidationError(f"{name}.dynamics.scripted_order: must not be empty")
        n = len(instance.types)
        for a in order:
            if not isinstance(a, int) or not 1 <= a <= n:
                raise ValidationError(
                    f"{name}.dynamics.scripted_order: agent ids must be in 1..{n}"
                )

    agent_spec = _object(data.get("agents", {}), f"{name}.agents")
    default = agent_spec.get("default", "best-response" if dkind == "best-response" else "mw")
    if default not in BEHAVIOR_KINDS:
        raise ValidationError(f"{name}.agents.default: unknown behavior {default!r}")
    behaviors = [default] * len(instance.types)
    overrides = _object(agent_spec.get("overrides", {}), f"{name}.agents.overrides")
    for key, value in overrides.items():
        try:
            aid = int(key)
        except ValueError:
            aid = 0
        if not 1 <= aid <= len(behaviors):
            raise ValidationError(f"{name}.agents.overrides: unknown agent id {key!r}")
        if value not in BEHAVIOR_KINDS:
            raise ValidationError(f"{name}.agents.overrides: unknown behavior {value!r}")
        behaviors[aid - 1] = value

    if dkind == "regret" and "best-response" in behaviors:
        agent = behaviors.index("best-response") + 1
        raise ValidationError(
            f"{name}.agents: agent {agent} is a best responder, but regret dynamics "
            "needs learner or byzantine behaviors"
        )

    acceptance = _object(data.get("acceptance", {}), f"{name}.acceptance")
    epsilon = parse_fraction(acceptance.get("epsilon", "1/10"), f"{name}.acceptance.epsilon")
    checks = parse_checks(
        _object(acceptance.get("checks", {}), f"{name}.acceptance.checks"),
        f"{name}.acceptance.checks",
    )
    return Experiment(name, instance, mech, dyn, behaviors, epsilon, checks)


FRACTION_CHECKS = (
    "welfare_ratio_equals",
    "min_welfare_ratio",
    "replica_pass_fraction",
    "max_regret_per_round",
    "min_g_fraction",
)
FLAG_CHECKS = ("require_separated", "expect_convergence", "byzantine_restricted")


def parse_checks(raw: dict, where: str) -> dict:
    """Check values parsed once, at load, so that `validate` rejects what
    `run` would reject and `run` rejects it before any round: rationals
    become `Fraction`s (`min_g_fraction` may stay "auto"), flags must be
    booleans and `expect_cycle_period` a positive integer."""
    checks = dict(raw)
    for key in FRACTION_CHECKS:
        if key in checks and not (key == "min_g_fraction" and checks[key] == "auto"):
            checks[key] = parse_fraction(checks[key], f"{where}.{key}")
    for key in FLAG_CHECKS:
        if key in checks and not isinstance(checks[key], bool):
            raise ValidationError(f"{where}.{key}: expected true or false")
    period = checks.get("expect_cycle_period", 1)
    if isinstance(period, bool) or not isinstance(period, int) or period < 1:
        raise ValidationError(f"{where}.expect_cycle_period: must be a positive integer")
    return checks


def _scenario_dir():
    return resources.files("auctionlab") / "scenarios"


def list_scenarios() -> list[str]:
    names = []
    for entry in _scenario_dir().iterdir():
        if entry.name.endswith(".experiment.json"):
            names.append(entry.name[: -len(".experiment.json")])
    return sorted(names)


def load_experiment(source: str | Path) -> Experiment:
    """Load an experiment by file path or built-in scenario name."""
    path = Path(source)
    if path.suffix == ".json" and path.exists():
        data = _read_json(path)
        name = path.stem.replace(".experiment", "")
        ref = _require(data, "instance", str(path))
        ipath = (path.parent / ref) if not Path(ref).is_absolute() else Path(ref)
        instance = load_instance(ipath)
        return parse_experiment(data, instance, name)
    scenario = str(source)
    entry = _scenario_dir() / f"{scenario}.experiment.json"
    try:
        data = json.loads(entry.read_text())
    except FileNotFoundError:
        raise ValidationError(
            f"no experiment file or scenario named {scenario!r}; try 'auctionlab scenarios'"
        ) from None
    ref = _require(data, "instance", scenario)
    instance = parse_instance(json.loads((_scenario_dir() / ref).read_text()), where=ref)
    return parse_experiment(data, instance, scenario)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def welfare_targets(experiment: Experiment) -> tuple[tuple[int, ...], int]:
    """The oracle's target allocation and the optimum the replicas are judged
    against: the full optimum, or under `byzantine_restricted` the optimum
    of the other agents' bids.  Both depend only on the experiment, so a run
    computes them once for all its replicas."""
    types = experiment.instance.types
    cap = experiment.oracle_cap()
    target_alloc, optimum = optimal_welfare(types, cap)
    if experiment.checks.get("byzantine_restricted"):
        byzantine = experiment.byzantine_set()
        bids = [b for b in atoms_as_bids(types, cap) if b[0] not in byzantine]
        _, optimum = optimal_allocation(bids, len(types), cap)
    return target_alloc, optimum


def run_replica(
    experiment: Experiment,
    replica: int,
    base_seed: int,
    targets: tuple[tuple[int, ...], int],
) -> dict:
    """Execute one replica and evaluate its checks against the experiment's
    `welfare_targets`; returns a summary dict plus the CSV trace text."""
    seed = replica_seeds(base_seed, replica + 1)[replica]
    config = experiment.run_config(seed)
    agents = config.agents
    if experiment.dynamics_spec["kind"] == "regret":
        trace = run_regret_dynamics(config)
    else:
        trace = run_best_response_dynamics(config)

    types = experiment.instance.types
    checks = experiment.checks
    target_alloc, optimum = targets
    if checks.get("byzantine_restricted"):
        report = resilience_report(trace, types, experiment.byzantine_set(), optimum)
    else:
        report = welfare_report(trace, types, optimum)
    summary: dict[str, Any] = {
        "replica": replica,
        "seed": seed,
        "welfare": {
            "average": format_fraction(report.average),
            "optimum": report.optimum,
            "ratio": format_fraction(report.ratio),
        },
    }
    results: list[dict] = []

    def record(name: str, passed: bool, detail: str) -> None:
        results.append({"name": name, "pass": bool(passed), "detail": detail})

    if "welfare_ratio_equals" in checks:
        want = checks["welfare_ratio_equals"]
        record(
            "welfare_ratio_equals",
            report.ratio == want,
            f"ratio {format_fraction(report.ratio)} vs {format_fraction(want)}",
        )
    if "min_welfare_ratio" in checks:
        want = checks["min_welfare_ratio"]
        record(
            "min_welfare_ratio",
            report.ratio >= want,
            f"ratio {format_fraction(report.ratio)} >= {format_fraction(want)}",
        )
    if checks.get("require_separated"):
        ok = separated_throughout(trace, types)
        record("require_separated", ok, "every round separated" if ok else "separation broken")
    if "expect_cycle_period" in checks:
        found = detect_cycle(trace)
        want_period = checks["expect_cycle_period"]
        ok = found is not None and found[0] == want_period
        record(
            "expect_cycle_period",
            ok,
            f"detected {found}" if found else "no cycle detected",
        )
        summary["cycle"] = {"period": found[0], "start_round": found[1]} if found else None
    if "expect_convergence" in checks:
        tail = constant_tail_start(trace)
        tail_len = trace.rounds - tail + 1
        converged = tail_len >= max(2, trace.rounds // 2)
        record(
            "expect_convergence",
            converged == checks["expect_convergence"],
            f"constant tail from round {tail}",
        )
        summary["converged"] = converged
    if "max_regret_per_round" in checks:
        want = checks["max_regret_per_round"]
        regrets = regret_report(trace, agents)
        worst = max(regrets.per_agent, default=Fraction(0))
        record(
            "max_regret_per_round",
            worst <= want,
            f"max regret {format_fraction(worst)} <= {format_fraction(want)}",
        )
        summary["regret"] = {
            str(i + 1): format_fraction(r) for i, r in enumerate(regrets.per_agent)
        }
    if "min_g_fraction" in checks:
        want = checks["min_g_fraction"]
        if want == "auto":
            want = Fraction(1, 2) - experiment.epsilon
        _, fractions = coverage_report(trace, types, target_alloc, sum_strict=False)
        worst = min(fractions, default=Fraction(1))
        record(
            "min_g_fraction",
            worst >= want,
            f"min fraction {format_fraction(worst)} >= {format_fraction(want)}",
        )
        summary["g_fractions"] = {
            str(i + 1): format_fraction(f) for i, f in enumerate(fractions)
        }

    summary["checks"] = results
    summary["ratio_value"] = report.ratio
    return {"summary": summary, "csv": trace_csv(trace, experiment)}


def separated_throughout(trace: Trace, types: Sequence[Valuation]) -> bool:
    """Whether every round's profile is separated; checks each distinct
    profile object once, since records of one cached state share theirs."""
    profiles = {id(r.profile): r.profile for r in trace.records}
    return all(all(separated_flags(p, types)) for p in profiles.values())


def _coin_text(coin) -> str:
    if coin.lottery_agent is not None:
        return f"lottery:{coin.lottery_agent + 1}"
    return "ignore-grand" if coin.ignore_grand else "-"


def trace_csv(trace: Trace, experiment: Experiment) -> str:
    """The trace as CSV, one row per round.  Records of one cached state
    share their profile and outcome objects, so the text of a profile's
    `set_*,bid_*` columns and of an outcome's `won_*,pay_*` columns is
    formatted once per object (keyed by `id`, which stays unique while the
    trace holds every object); an equal but distinct object just formats
    the same text again."""
    n = trace.n_agents
    header = ["round", "updater"]
    header += [f"set_{i + 1}" for i in range(n)]
    header += [f"bid_{i + 1}" for i in range(n)]
    header.append("coin")
    header += [f"won_{i + 1}" for i in range(n)]
    header += [f"pay_{i + 1}" for i in range(n)]
    header += ["declared_sw", "true_sw"]
    lines = [",".join(header)]
    profile_text: dict[int, str] = {}
    outcome_text: dict[int, str] = {}
    for r in trace.records:
        bids = profile_text.get(id(r.profile))
        if bids is None:
            cells = [d.set_mask for d in r.profile] + [d.bid for d in r.profile]
            bids = profile_text[id(r.profile)] = "".join(f",{c}" for c in cells)
        wins = outcome_text.get(id(r.outcome))
        if wins is None:
            cells = list(r.outcome.allocation) + list(r.outcome.payments)
            wins = outcome_text[id(r.outcome)] = "".join(f",{c}" for c in cells)
        updater = "ALL" if r.updater == ALL_AGENTS else r.updater + 1
        lines.append(
            f"{r.round},{updater}{bids},{_coin_text(r.coin)}{wins},"
            f"{r.declared_welfare},{r.true_welfare}"
        )
    return "\n".join(lines) + "\n"


def run_experiment(
    source: str | Path,
    out_dir: Path,
    seed: Optional[int] = None,
    replicas: Optional[int] = None,
    overrides: Optional[dict] = None,
    workers: int = 1,
) -> int:
    """Run every replica, write one CSV per replica plus a summary JSON, and
    return the exit status (0 iff all configured checks pass)."""
    experiment = load_experiment(source)
    if overrides:
        experiment.mechanism_spec.update(
            {k: v for k, v in overrides.items() if k in ("gamma", "appendix_b_lottery")}
        )
        if "epsilon" in overrides:
            experiment.epsilon = parse_fraction(overrides["epsilon"], "--epsilon")
        if "scripted_order" in overrides:
            experiment.dynamics_spec["scripted_order"] = overrides["scripted_order"]
    base_seed = seed if seed is not None else experiment.dynamics_spec.get("seed", 0)
    count = replicas if replicas is not None else experiment.dynamics_spec.get("replicas", 1)

    targets = welfare_targets(experiment)
    out_dir.mkdir(parents=True, exist_ok=True)
    if workers > 1 and count > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(run_replica, [experiment] * count, range(count),
                                    [base_seed] * count, [targets] * count))
    else:
        outputs = [run_replica(experiment, r, base_seed, targets) for r in range(count)]

    summaries = []
    ratios = []
    for r, out in enumerate(outputs):
        (out_dir / f"trace-replica{r}.csv").write_text(out["csv"])
        summary = out["summary"]
        ratios.append(summary.pop("ratio_value"))
        summaries.append(summary)

    checks = experiment.checks
    overall = True
    run_checks = []
    fraction_gate = None
    if "min_welfare_ratio" in checks:
        want = checks["min_welfare_ratio"]
        need = checks.get("replica_pass_fraction", Fraction(1))
        stats = aggregate(ratios, want)
        ok = stats.pass_fraction >= need
        fraction_gate = {
            "name": "replica_pass_fraction",
            "pass": ok,
            "detail": (
                f"{format_fraction(stats.pass_fraction)} of replicas reach "
                f"{format_fraction(want)} (need {format_fraction(need)})"
            ),
        }
        run_checks.append(fraction_gate)
        overall &= ok
    for r, summary in enumerate(summaries):
        for item in summary["checks"]:
            if item["name"] == "min_welfare_ratio" and fraction_gate is not None:
                continue  # judged at the run level via the pass fraction
            overall &= item["pass"]

    stats = aggregate(ratios, Fraction(0)) if ratios else None
    document = {
        "experiment": experiment.name,
        "mechanism": experiment.mechanism_spec,
        "dynamics": {
            k: v for k, v in experiment.dynamics_spec.items() if k != "initial"
        },
        "seed": base_seed,
        "replicas": summaries,
        "run_checks": run_checks,
        "aggregate": (
            {
                "ratio_min": format_fraction(stats.minimum),
                "ratio_median": format_fraction(stats.median),
            }
            if stats
            else {}
        ),
        "pass": bool(overall),
    }
    (out_dir / "summary.json").write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n"
    )

    for summary in summaries:
        for item in summary["checks"]:
            mark = "PASS" if item["pass"] else "FAIL"
            print(f"replica {summary['replica']}: {mark} {item['name']}: {item['detail']}")
    for item in run_checks:
        print(f"run: {'PASS' if item['pass'] else 'FAIL'} {item['name']}: {item['detail']}")
    print(f"overall: {'PASS' if overall else 'FAIL'} -> {out_dir / 'summary.json'}")
    return 0 if overall else 1


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    path = Path(args.path)
    try:
        data = _read_json(path)
        if isinstance(data, dict) and "mechanism" in data:
            load_experiment(path).run_config(seed=0)
            print(f"OK: experiment {path}")
        else:
            instance = parse_instance(data, where=str(path))
            print(f"OK: instance {path} ({len(instance.types)} agents, {instance.item_count} items)")
        return 0
    except ValidationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2


def cmd_scenarios(_args) -> int:
    for name in list_scenarios():
        print(name)
    return 0


def cmd_oracle(args) -> int:
    try:
        instance = load_instance(Path(args.path))
        cap = args.s if args.s is not None else instance.cap
        alloc, welfare = optimal_welfare(instance.types, cap)
        print(f"optimal welfare: {welfare}")
        for i, mask in enumerate(alloc):
            if mask:
                print(f"agent {i + 1}: {{{', '.join(instance.names_for(mask))}}}")
        return 0
    except ValidationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2


def cmd_run(args) -> int:
    overrides = {}
    if args.gamma is not None:
        overrides["gamma"] = args.gamma
    if args.appendix_b_lottery is not None:
        overrides["appendix_b_lottery"] = args.appendix_b_lottery
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    out_dir = Path(args.out_dir) if args.out_dir else Path("runs") / Path(str(args.source)).stem
    try:
        if args.scripted_order is not None:
            try:
                overrides["scripted_order"] = [int(x) for x in args.scripted_order.split(",")]
            except ValueError:
                raise ValidationError("--scripted-order: expected comma-separated agent ids") from None
        return run_experiment(
            args.source,
            out_dir,
            seed=args.seed,
            replicas=args.replicas,
            overrides=overrides,
            workers=args.workers,
        )
    except ValidationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Repeated combinatorial auction simulation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance or experiment file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("scenarios", help="list built-in scenarios")
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("oracle", help="print the exact optimal welfare of an instance")
    p.add_argument("path")
    p.add_argument("--s", type=int, default=None, help="cardinality cap override")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("run", help="run an experiment file or built-in scenario")
    p.add_argument("source", help="experiment file path or scenario name")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--gamma", default=None)
    p.add_argument("--epsilon", default=None)
    p.add_argument("--scripted-order", default=None, help="comma-separated agent ids")
    p.add_argument("--appendix-b-lottery", default=None)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_run)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
