"""Command-line entry point: instance/experiment loading, the built-in
scenario library, batch replica execution, acceptance checks, and
trace/summary export.  The JSON file formats are documented in the README;
rationals are "p/q" strings and every trace column is an integer, so CSV
exports are byte-identical across platforms for the same config.
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
from typing import Any, Callable, NamedTuple, Optional, Sequence

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
    Outcome,
    Profile,
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
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
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
        for name in _list(names, where):
            if _integer(name):
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


def _integer(value: Any) -> bool:
    """A JSON integer; `true` and `false` are ints to Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _object(data: Any, where: str) -> dict:
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected an object")
    return data


def _list(data: Any, where: str) -> list:
    if not isinstance(data, list):
        raise ValidationError(f"{where}: expected a list")
    return data


def _require(data: Any, key: str, where: str):
    if key not in _object(data, where):
        raise ValidationError(f"{where}: missing required key '{key}'")
    return data[key]


def _cap(value: Any, where: str) -> Optional[int]:
    """A cardinality cap `s`: absent (None) or a positive integer."""
    if value is not None and (not _integer(value) or value < 1):
        raise ValidationError(f"{where}: must be a positive integer")
    return value


def parse_instance(data: dict, where: str = "instance") -> Instance:
    m = _require(data, "m", where)
    if not _integer(m) or not 0 <= m <= MAX_ITEMS:
        raise ValidationError(f"{where}.m: must be an integer in [0, {MAX_ITEMS}]")
    labels = data.get("items")
    if labels is None:
        labels = [str(j) for j in range(m)]
    if (not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
            or len(labels) != m or len(set(labels)) != m):
        raise ValidationError(f"{where}.items: need {m} distinct string labels")
    cap = _cap(data.get("s"), f"{where}.s")
    instance = Instance(m, tuple(labels), cap, [])
    for k, spec in enumerate(_list(data.get("agents", []), f"{where}.agents")):
        aw = f"{where}.agents[{k}]"
        aid = _require(spec, "id", aw)
        if not _integer(aid) or aid != k + 1:
            raise ValidationError(f"{aw}.id: ids must be contiguous from 1, expected {k + 1}")
        atoms = _list(_require(spec, "atoms", aw), f"{aw}.atoms")
        if not atoms:
            raise ValidationError(f"{aw}.atoms: must not be empty")
        pairs = []
        for a, atom in enumerate(atoms):
            bw = f"{aw}.atoms[{a}]"
            value = _require(atom, "value", bw)
            if not _integer(value) or value < 1:
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
        return GrandBundleMechanism(m, parse_fraction(spec["gamma"], "gamma"), lottery)

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
        for entry in _list(initial, where):
            aid = _require(entry, "id", where)
            if not _integer(aid) or not 1 <= aid <= len(decls):
                raise ValidationError(f"{where}: unknown agent id {aid!r}")
            mask = self.instance.mask_for(_require(entry, "items", where), where)
            bid = _require(entry, "bid", where)
            if not _integer(bid) or bid < 0:
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
    _cap(mech.get("s"), f"{name}.mechanism.s")
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
    if not _integer(rounds) or rounds < 1:
        raise ValidationError(f"{name}.dynamics.rounds: must be a positive integer")
    replicas = dyn.get("replicas", 1)
    if not _integer(replicas) or replicas < 1:
        raise ValidationError(f"{name}.dynamics.replicas: must be a positive integer")
    if not _integer(dyn.get("seed", 0)):
        raise ValidationError(f"{name}.dynamics.seed: must be an integer")
    for flag in ("empty_start", "keep_on_tie"):
        if flag in dyn:
            _flag(dyn[flag], f"{name}.dynamics.{flag}")
    order = dyn.get("scripted_order")
    n = len(instance.types)
    if order is not None and not (
        isinstance(order, list) and order and all(_integer(a) and 1 <= a <= n for a in order)
    ):
        raise ValidationError(
            f"{name}.dynamics.scripted_order: must be a non-empty list of agent ids in 1..{n}"
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
        name, where, home = path.stem.replace(".experiment", ""), str(path), path.parent
        data = _read_json(path)
    else:
        name = where = str(source)
        home = _scenario_dir()
        try:
            data = json.loads((home / f"{name}.experiment.json").read_text())
        except FileNotFoundError:
            raise ValidationError(
                f"no experiment file or scenario named {name!r}; try 'auctionlab scenarios'"
            ) from None
    ref = _require(data, "instance", where)
    if not isinstance(ref, str):
        raise ValidationError(f"{where}.instance: expected a file name")
    return parse_experiment(data, load_instance(home / ref), name)


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


class _Replica(NamedTuple):
    """What a check sees of one finished replica."""

    experiment: Experiment
    trace: Trace
    agents: list[AgentModel]
    report: Any  # the welfare or resilience report
    target_alloc: tuple[int, ...]


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: expected true or false")
    return value


def _period(value: Any, where: str) -> int:
    if not _integer(value) or value < 1:
        raise ValidationError(f"{where}: must be a positive integer")
    return value


def _g_fraction(value: Any, where: str) -> Fraction | str:
    return value if value == "auto" else parse_fraction(value, where)


def _by_agent(values: Sequence[Fraction]) -> dict[str, str]:
    return {str(i + 1): format_fraction(v) for i, v in enumerate(values)}


# An evaluator returns (passed, detail, summary fields), or None when the
# value asks for nothing.  Evaluators look the metric helpers up as module
# globals at call time, so a wrapper installed on this module sees them.


def _ratio_equals(want: Fraction, run: _Replica):
    ratio = run.report.ratio
    return ratio == want, f"ratio {format_fraction(ratio)} vs {format_fraction(want)}", {}


def _min_ratio(want: Fraction, run: _Replica):
    ratio = run.report.ratio
    return ratio >= want, f"ratio {format_fraction(ratio)} >= {format_fraction(want)}", {}


def _separated(want: bool, run: _Replica):
    if not want:
        return None
    ok = separated_throughout(run.trace, run.experiment.instance.types)
    return ok, "every round separated" if ok else "separation broken", {}


def _cycle(want: int, run: _Replica):
    found = detect_cycle(run.trace)
    cycle = {"period": found[0], "start_round": found[1]} if found else None
    detail = f"detected {found}" if found else "no cycle detected"
    return found is not None and found[0] == want, detail, {"cycle": cycle}


def _convergence(want: bool, run: _Replica):
    rounds = run.trace.rounds
    tail = constant_tail_start(run.trace)
    converged = rounds - tail + 1 >= max(2, rounds // 2)
    return converged == want, f"constant tail from round {tail}", {"converged": converged}


def _regret(want: Fraction, run: _Replica):
    per_agent = regret_report(run.trace, run.agents).per_agent
    worst = max(per_agent, default=Fraction(0))
    detail = f"max regret {format_fraction(worst)} <= {format_fraction(want)}"
    return worst <= want, detail, {"regret": _by_agent(per_agent)}


def _coverage(want: Fraction | str, run: _Replica):
    if want == "auto":
        want = Fraction(1, 2) - run.experiment.epsilon
    types = run.experiment.instance.types
    _, fractions = coverage_report(run.trace, types, run.target_alloc, sum_strict=False)
    worst = min(fractions, default=Fraction(1))
    detail = f"min fraction {format_fraction(worst)} >= {format_fraction(want)}"
    return worst >= want, detail, {"g_fractions": _by_agent(fractions)}


# Every acceptance check, in the order replicas evaluate and report them.
# `min_welfare_ratio` is judged across replicas: a run passes it when at
# least `replica_pass_fraction` (default 1) of its replicas reach the ratio.
# `byzantine_restricted` judges welfare against the optimum of the other
# agents' bids.
_CHECKS: dict[str, tuple[Callable[[Any, str], Any], Optional[Callable]]] = {
    # name: (value parser, per-replica evaluator)
    "welfare_ratio_equals": (parse_fraction, _ratio_equals),
    "min_welfare_ratio": (parse_fraction, _min_ratio),
    "require_separated": (_flag, _separated),
    "expect_cycle_period": (_period, _cycle),
    "expect_convergence": (_flag, _convergence),
    "max_regret_per_round": (parse_fraction, _regret),
    "min_g_fraction": (_g_fraction, _coverage),
    "replica_pass_fraction": (parse_fraction, None),
    "byzantine_restricted": (_flag, None),
}


def parse_checks(raw: dict, where: str) -> dict:
    """Check values parsed once, at load, so that `validate` rejects what
    `run` would reject and `run` rejects it before any round."""
    checks = {}
    for key, value in raw.items():
        if key not in _CHECKS:
            raise ValidationError(f"{where}.{key}: unknown check; known: {', '.join(_CHECKS)}")
        checks[key] = _CHECKS[key][0](value, f"{where}.{key}")
    if "replica_pass_fraction" in checks and "min_welfare_ratio" not in checks:
        raise ValidationError(f"{where}.replica_pass_fraction: needs min_welfare_ratio")
    return checks


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
    `welfare_targets`; returns its summary dict, welfare ratio and CSV
    trace text."""
    seed = replica_seeds(base_seed, replica + 1)[replica]
    config = experiment.run_config(seed)
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
    run = _Replica(experiment, trace, config.agents, report, target_alloc)
    results = []
    for name, (_, evaluate) in _CHECKS.items():
        if name in checks and evaluate is not None:
            outcome = evaluate(checks[name], run)
            if outcome is not None:
                passed, detail, fields = outcome
                results.append({"name": name, "pass": bool(passed), "detail": detail})
                summary.update(fields)
    summary["checks"] = results
    return {"summary": summary, "ratio": report.ratio, "csv": trace_csv(trace, experiment)}


def separated_throughout(trace: Trace, types: Sequence[Valuation]) -> bool:
    """Whether every round's profile is separated; checks each distinct
    profile once."""
    profiles = dict.fromkeys(r.profile for r in trace.records)
    return all(all(separated_flags(p, types)) for p in profiles)


def _coin_text(coin) -> str:
    if coin.lottery_agent is not None:
        return f"lottery:{coin.lottery_agent + 1}"
    return "ignore-grand" if coin.ignore_grand else "-"


def trace_csv(trace: Trace, experiment: Experiment) -> str:
    """The trace as CSV, one row per round.  The text of a profile's
    `set_*,bid_*` columns and of an outcome's `won_*,pay_*` columns is
    formatted once per distinct profile and outcome."""
    n = trace.n_agents
    header = ["round", "updater"]
    header += [f"set_{i + 1}" for i in range(n)]
    header += [f"bid_{i + 1}" for i in range(n)]
    header.append("coin")
    header += [f"won_{i + 1}" for i in range(n)]
    header += [f"pay_{i + 1}" for i in range(n)]
    header += ["declared_sw", "true_sw"]
    lines = [",".join(header)]
    profile_text: dict[Profile, str] = {}
    outcome_text: dict[Outcome, str] = {}
    for r in trace.records:
        bids = profile_text.get(r.profile)
        if bids is None:
            cells = [d.set_mask for d in r.profile] + [d.bid for d in r.profile]
            bids = profile_text[r.profile] = "".join(f",{c}" for c in cells)
        wins = outcome_text.get(r.outcome)
        if wins is None:
            cells = r.outcome.allocation + r.outcome.payments
            wins = outcome_text[r.outcome] = "".join(f",{c}" for c in cells)
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

    for r, out in enumerate(outputs):
        (out_dir / f"trace-replica{r}.csv").write_text(out["csv"])
    summaries = [out["summary"] for out in outputs]
    ratios = [out["ratio"] for out in outputs]

    checks = experiment.checks
    run_checks = []
    if "min_welfare_ratio" in checks:
        want = checks["min_welfare_ratio"]
        need = checks.get("replica_pass_fraction", Fraction(1))
        stats = aggregate(ratios, want)
        run_checks.append({
            "name": "replica_pass_fraction",
            "pass": stats.pass_fraction >= need,
            "detail": (
                f"{format_fraction(stats.pass_fraction)} of replicas reach "
                f"{format_fraction(want)} (need {format_fraction(need)})"
            ),
        })
    # a replica's min_welfare_ratio counts only through the pass fraction
    overall = all(item["pass"] for item in run_checks) and all(
        item["pass"] for summary in summaries for item in summary["checks"]
        if item["name"] != "min_welfare_ratio"
    )

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
        "aggregate": {
            "ratio_min": format_fraction(stats.minimum),
            "ratio_median": format_fraction(stats.median),
        } if stats else {},
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
    data = _read_json(path)
    if isinstance(data, dict) and "mechanism" in data:
        load_experiment(path).run_config(seed=0)
        print(f"OK: experiment {path}")
    else:
        instance = parse_instance(data, where=str(path))
        print(f"OK: instance {path} ({len(instance.types)} agents, {instance.item_count} items)")
    return 0


def cmd_scenarios(_args) -> int:
    for name in list_scenarios():
        print(name)
    return 0


def cmd_oracle(args) -> int:
    instance = load_instance(Path(args.path))
    cap = args.s if args.s is not None else instance.cap
    alloc, welfare = optimal_welfare(instance.types, cap)
    print(f"optimal welfare: {welfare}")
    for i, mask in enumerate(alloc):
        if mask:
            print(f"agent {i + 1}: {{{', '.join(instance.names_for(mask))}}}")
    return 0


def cmd_run(args) -> int:
    flags = (("gamma", args.gamma), ("appendix_b_lottery", args.appendix_b_lottery),
             ("epsilon", args.epsilon))
    overrides = {key: value for key, value in flags if value is not None}
    if args.scripted_order is not None:
        try:
            overrides["scripted_order"] = [int(x) for x in args.scripted_order.split(",")]
        except ValueError:
            raise ValidationError("--scripted-order: expected comma-separated agent ids") from None
    out_dir = Path(args.out_dir) if args.out_dir else Path("runs") / Path(str(args.source)).stem
    return run_experiment(
        args.source,
        out_dir,
        seed=args.seed,
        replicas=args.replicas,
        overrides=overrides,
        workers=args.workers,
    )


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
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
