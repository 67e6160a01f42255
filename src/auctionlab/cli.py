"""Command-line entry point: instance/experiment loading, the built-in
scenario library, batch replica execution, acceptance checks, and
trace/summary export.  The JSON file formats are documented in the README;
rationals are "p/q" strings and every trace column is an integer, so CSV
exports are byte-identical across platforms for the same config.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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
    MAX_TICKS,
    SizeError,
    ValidationError,
    Valuation,
    bundle_from_items,
    bundle_items,
    single_minded,
)
from .dynamics import (
    ALL_AGENTS,
    DRIVES,
    MAX_ROUNDS,
    RunConfig,
    Trace,
    constant_tail_start,
    detect_cycle,
    replica_seed,
    run_best_response_dynamics,
    run_regret_dynamics,
)
from .mechanisms import (
    FilteredGreedyMechanism, GrandBundleMechanism, Mechanism, RuleMechanism, check_chance,
    pressure, separated_flags,
)
from .metrics import aggregate, coverage_report, regret_report, resilience_report, welfare_report

MECHANISM_KINDS = ("greedy", "filtered-greedy", "grand-bundle", "partition", "two-tier")
# Each behavior kind and the behavior its agents share; behaviors hold no state.
BEHAVIORS = {"best-response": BestResponder(), "mw": WeightedLearner(),
             "fpl": PerturbedLearner(), "byzantine": ByzantineBidder()}
BEHAVIOR_KINDS = tuple(BEHAVIORS)
MAX_REPLICAS = 10**4  # each replica writes a CSV file and a summary entry
MAX_WORKERS = 64  # `run --workers`: processes one run may start


# The only string form of a rational: `Fraction` alone would also take
# decimals and exponents, and "1e-100000" builds a 100,001-digit denominator.
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(value: Any, where: str) -> Fraction:
    if _integer(value) or isinstance(value, str) and _RATIONAL.fullmatch(value):
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


# Every key each object of the two file formats may hold; any other key is
# INVALID.  `acceptance.checks` takes the check names of `_CHECKS`, and
# `agents.overrides` maps agent ids.
_BEST_RESPONSE_ONLY = ("scripted_order", "initial", "empty_start", "keep_on_tie")
KEYS = {
    "instance": ("m", "items", "s", "agents"),
    "instance.agents[]": ("id", "atoms"),
    "instance.agents[].atoms[]": ("items", "value"),
    "experiment": ("instance", "mechanism", "dynamics", "agents", "acceptance"),
    "mechanism": ("kind", "s", "gamma", "partition_a", "appendix_b_lottery"),
    "dynamics": ("kind", "rounds", "seed", "replicas") + _BEST_RESPONSE_ONLY,
    "dynamics.initial[]": ("id", "items", "bid"),
    "agents": ("default", "overrides"),
    "acceptance": ("epsilon", "checks"),
}
# The mechanism and dynamics keys that only some kinds read; under any
# other kind such a key is INVALID.
_READ_BY = {
    "s": ("greedy", "partition", "filtered-greedy"),
    "gamma": ("grand-bundle",),
    "appendix_b_lottery": ("filtered-greedy", "grand-bundle"),
    "partition_a": ("partition",),
    **dict.fromkeys(_BEST_RESPONSE_ONLY, ("best-response",)),
}


def _known(data: Any, where: str, kind: str) -> dict:
    """`data` as an object that holds only keys `KEYS[kind]` declares."""
    for key in _object(data, where):
        if key not in KEYS[kind]:
            raise ValidationError(f"{where}.{key}: unknown key; known: {', '.join(KEYS[kind])}")
    return data


def _whole(value: Any, where: str) -> int:
    if not _integer(value):
        raise ValidationError(f"{where}: must be an integer")
    return value


def _replicas(value: Any, where: str, rounds: int) -> int:
    # the replicas of one run play at most MAX_ROUNDS rounds in all, which
    # also bounds the CSV text that one run writes
    count = _positive(value, where, MAX_REPLICAS)
    if rounds * count > MAX_ROUNDS:
        raise ValidationError(f"{where}: {count} replicas of {rounds} rounds exceed "
                              f"the {MAX_ROUNDS} rounds one run may play in all")
    return count


def _positive(value: Any, where: str, maximum: Optional[int] = None) -> int:
    if not _integer(value) or value < 1:
        raise ValidationError(f"{where}: must be a positive integer")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{where}: must be at most {maximum}")
    return value


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: expected true or false")
    return value


def _cap(value: Any, where: str) -> Optional[int]:
    """A cardinality cap `s`: absent (None) or a positive integer."""
    return None if value is None else _positive(value, where)


def parse_instance(data: dict, where: str = "instance") -> Instance:
    _known(data, where, "instance")
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
        aid = _require(_known(spec, aw, "instance.agents[]"), "id", aw)
        if not _integer(aid) or aid != k + 1:
            raise ValidationError(f"{aw}.id: ids must be contiguous from 1, expected {k + 1}")
        atoms = _list(_require(spec, "atoms", aw), f"{aw}.atoms")
        if not atoms:
            raise ValidationError(f"{aw}.atoms: must not be empty")
        pairs = []
        for a, atom in enumerate(atoms):
            bw = f"{aw}.atoms[{a}]"
            value = _require(_known(atom, bw, "instance.agents[].atoms[]"), "value", bw)
            value = _positive(value, f"{bw}.value")  # in ticks
            mask = instance.mask_for(_require(atom, "items", bw), f"{bw}.items")
            if mask == 0:
                raise ValidationError(f"{bw}.items: must not be empty")
            pairs.append((mask, value))
        try:
            instance.types.append(Valuation(pairs))
        except ValidationError as exc:
            raise ValidationError(f"{aw}: {exc}") from None
    return instance


def load_instance(path: Path) -> Instance:
    return parse_instance(_read_json(path), where=str(path))


def _read_json(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL in the path
        raise ValidationError(f"{path}: {exc}") from None

    def unique_keys(pairs: list) -> dict:
        data = {}
        for key, value in pairs:
            if key in data:
                raise ValidationError(f"{path}: duplicate key {key!r}")
            data[key] = value
        return data

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # an over-long integer, or too deep a nesting
        raise ValidationError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Experiment files
# ---------------------------------------------------------------------------


@dataclass
class Experiment:
    """An experiment with every key parsed at load.  The raw mechanism and
    dynamics objects are kept as `summary.json` records them."""

    name: str
    instance: Instance
    mechanism_spec: dict
    dynamics_spec: dict
    behaviors: list[str]
    epsilon: Fraction
    checks: dict
    kind: str  # the mechanism kind
    cap: Optional[int]
    gamma: Optional[Fraction]
    lottery: Optional[Fraction]
    partition_a: int  # a bundle mask
    regret: bool
    replicas: int
    seed: int
    engine: dict  # the other RunConfig fields: rounds, scripted_order, ...

    def build_mechanism(self) -> Mechanism:
        m, cap, kind = self.instance.item_count, self.cap, self.kind
        if kind == "greedy":
            return RuleMechanism(greedy_rule(cap), m)
        if kind == "two-tier":
            return RuleMechanism(two_tier_rule(m), m)
        if kind == "partition":
            return RuleMechanism(partition_rule(m, self.partition_a, cap), m)
        if kind == "filtered-greedy":
            return FilteredGreedyMechanism(m, cap, self.lottery)
        return GrandBundleMechanism(m, self.gamma, self.lottery)

    def build_agents(self, mechanism: Mechanism) -> list[AgentModel]:
        return [
            make_agent(i, t, BEHAVIORS[b], mechanism)
            for i, (t, b) in enumerate(zip(self.instance.types, self.behaviors))
        ]

    def byzantine_set(self) -> frozenset[int]:
        return frozenset(i for i, b in enumerate(self.behaviors) if b == "byzantine")

    def run_config(self, seed: int) -> RunConfig:
        """The engine configuration of one replica."""
        mechanism = self.build_mechanism()
        return RunConfig(mechanism, self.build_agents(mechanism), seed=seed, **self.engine)


def parse_experiment(
    data: dict, instance: Instance, name: str, flags: Sequence[str] = ()
) -> Experiment:
    """Parse and check every key once, so that `validate` rejects what `run`
    would and `run` rejects it before any round.  Errors in a key named in
    `flags` name the `run` flag that set it (`--appendix-b-lottery` for
    `appendix_b_lottery`)."""
    def at(section: str, key: str) -> str:
        return "--" + key.replace("_", "-") if key in flags else f"{name}.{section}.{key}"

    _known(data, name, "experiment")
    mw, dw = f"{name}.mechanism", f"{name}.dynamics"
    mech = _known(_require(data, "mechanism", name), mw, "mechanism")
    kind = _require(mech, "kind", mw)
    if kind not in MECHANISM_KINDS:
        raise ValidationError(f"{mw}.kind: unknown kind {kind!r}")
    dyn = _known(_require(data, "dynamics", name), dw, "dynamics")
    dkind = _require(dyn, "kind", dw)
    if dkind not in tuple(DRIVES):  # not `in DRIVES`: a JSON list is unhashable
        raise ValidationError(f"{dw}.kind: unknown kind {dkind!r}")
    for section, spec, what in (("mechanism", mech, kind), ("dynamics", dyn, dkind)):
        for key in spec:
            if what not in _READ_BY.get(key, (what,)):
                raise ValidationError(f"{at(section, key)}: {what} {section} does not read it")

    cap = _cap(mech["s"], f"{mw}.s") if "s" in mech else instance.cap
    gamma = lottery = None
    if kind == "grand-bundle":
        gamma = parse_fraction(_require(mech, "gamma", mw), at("mechanism", "gamma"))
    if "appendix_b_lottery" in mech:
        lottery = parse_fraction(mech["appendix_b_lottery"], at("mechanism", "appendix_b_lottery"))
    side = 0
    if kind == "partition":
        side = instance.mask_for(_require(mech, "partition_a", mw), f"{mw}.partition_a")

    empty_start = _flag(dyn.get("empty_start", True), f"{dw}.empty_start")
    n = len(instance.types)
    order = dyn.get("scripted_order")
    if order is not None:
        if not (isinstance(order, list) and order
                and all(_integer(a) and 1 <= a <= n for a in order)):
            raise ValidationError(f"{at('dynamics', 'scripted_order')}: "
                                  f"must be a non-empty list of agent ids in 1..{n}")
        order = [a - 1 for a in order]
    initial = dyn.get("initial")
    if initial is not None:
        decls = {}
        for k, entry in enumerate(_list(initial, f"{dw}.initial")):
            ew = f"{dw}.initial[{k}]"
            aid = _require(_known(entry, ew, "dynamics.initial[]"), "id", ew)
            if not _integer(aid) or not 1 <= aid <= n:
                raise ValidationError(f"{ew}.id: unknown agent id {aid!r}")
            if aid in decls:
                raise ValidationError(f"{ew}.id: agent {aid} already has an initial entry")
            mask = instance.mask_for(_require(entry, "items", ew), f"{ew}.items")
            bid = _require(entry, "bid", ew)
            if not _integer(bid) or not 0 <= bid <= MAX_TICKS:
                raise ValidationError(f"{ew}.bid: must be an integer in [0, {MAX_TICKS}]")
            decls[aid] = single_minded(mask, bid)
        initial = tuple(decls.get(aid, EMPTY) for aid in range(1, n + 1))
    rounds = _positive(_require(dyn, "rounds", dw), f"{dw}.rounds", MAX_ROUNDS)
    replicas = _replicas(dyn.get("replicas", 1), f"{dw}.replicas", rounds)
    seed = _whole(dyn.get("seed", 0), f"{dw}.seed")
    keep_on_tie = _flag(dyn.get("keep_on_tie", True), f"{dw}.keep_on_tie")
    engine = dict(rounds=rounds, empty_start=empty_start, keep_on_tie=keep_on_tie,
                  scripted_order=order, initial_profile=initial)

    aw = f"{name}.agents"
    agent_spec = _known(data.get("agents", {}), aw, "agents")
    regret = dkind == "regret"
    default = agent_spec.get("default", "mw" if regret else "best-response")
    if default not in BEHAVIOR_KINDS:
        raise ValidationError(f"{aw}.default: unknown behavior {default!r}")
    behaviors = [default] * n
    ids = {str(aid): aid for aid in range(1, n + 1)}  # canonical decimal ids only
    for key, value in _object(agent_spec.get("overrides", {}), f"{aw}.overrides").items():
        aid = ids.get(key)
        if aid is None:
            raise ValidationError(f"{aw}.overrides: unknown agent id {key!r}")
        if value not in BEHAVIOR_KINDS:
            raise ValidationError(f"{aw}.overrides: unknown behavior {value!r}")
        behaviors[aid - 1] = value
    drives = [b for b, behavior in BEHAVIORS.items() if isinstance(behavior, DRIVES[dkind])]
    for aid, behavior in enumerate(behaviors, 1):
        if behavior not in drives:
            raise ValidationError(f"{aw}: agent {aid} is {behavior}, but {dkind} dynamics "
                                  f"drives only {' and '.join(drives)} agents")

    cw = f"{name}.acceptance"
    acceptance = _known(data.get("acceptance", {}), cw, "acceptance")
    epsilon = parse_fraction(acceptance.get("epsilon", "1/10"), at("acceptance", "epsilon"))
    if not 0 <= epsilon < Fraction(1, 2):  # "auto" asks for a 1/2 - epsilon share
        raise ValidationError(f"{at('acceptance', 'epsilon')}: must lie in [0, 1/2)")
    raw = _known(acceptance.get("checks", {}), f"{cw}.checks", "acceptance.checks")
    checks = {key: _CHECKS[key][0](value, f"{cw}.checks.{key}") for key, value in raw.items()}
    if "replica_pass_fraction" in checks and "min_welfare_ratio" not in checks:
        raise ValidationError(f"{cw}.checks.replica_pass_fraction: needs min_welfare_ratio")

    experiment = Experiment(
        name, instance, mech, dyn, behaviors, epsilon, checks, kind=kind, cap=cap, gamma=gamma,
        lottery=lottery, partition_a=side, regret=regret, replicas=replicas, seed=seed,
        engine=engine,
    )
    try:  # the library checks what is left, on the objects `run` builds
        experiment.run_config(seed)
    except ValidationError as exc:  # at the key or flag it names, else at the mechanism
        section = "dynamics" if exc.arg in KEYS["dynamics"] else "mechanism"
        raise ValidationError(exc.reason, arg=at(section, exc.arg) if exc.arg else mw) from None
    return experiment


SCENARIO_DIR = resources.files("auctionlab") / "scenarios"


def list_scenarios() -> list[str]:
    suffix = ".experiment.json"
    return sorted(e.name[: -len(suffix)] for e in SCENARIO_DIR.iterdir()
                  if e.name.endswith(suffix))


# The experiment keys a `run` flag can replace, and the object of each.
_OVERRIDES = {
    "gamma": "mechanism",
    "appendix_b_lottery": "mechanism",
    "epsilon": "acceptance",
    "scripted_order": "dynamics",
}


def resolve_source(source: str | Path) -> tuple[Path, str]:
    """The file that `run` and `validate` read for `source`, and the name its
    errors are reported at: a built-in scenario name first, then the path as
    given if it ends in `.json` or is an existing file, then
    `<source>.experiment.json`.  So `./name` reads a local file that shares a
    scenario's name."""
    text = str(source)
    if text in list_scenarios():
        return SCENARIO_DIR / f"{text}.experiment.json", text
    path = Path(source)
    if path.suffix != ".json" and not path.is_file():
        path = Path(f"{text}.experiment.json")
    if not path.exists():
        raise ValidationError(
            f"no experiment file or scenario named {text!r}; try 'auctionlab scenarios'"
        )
    return path, str(path)


def load_experiment(source: str | Path, overrides: Optional[dict] = None) -> Experiment:
    """Load the experiment that `resolve_source` finds for `source`.  Each
    `overrides` value replaces its key of the file before the parse, so a
    flag obeys the rules of the key it replaces."""
    path, where = resolve_source(source)
    return _experiment_of(_read_json(path), path, where, overrides)


def _experiment_of(data: Any, path: Path, where: str,
                   overrides: Optional[dict] = None) -> Experiment:
    """The experiment in `data`, read from `path`; its instance is read
    beside it."""
    name = path.name.removesuffix(".json").removesuffix(".experiment")
    ref = _require(data, "instance", where)
    if not isinstance(ref, str):
        raise ValidationError(f"{where}.instance: expected a file name")
    overrides = overrides or {}
    for key, value in overrides.items():
        _object(data.setdefault(_OVERRIDES[key], {}), f"{name}.{_OVERRIDES[key]}")[key] = value
    return parse_experiment(data, load_instance(path.parent / ref), name, flags=tuple(overrides))


# ---------------------------------------------------------------------------
# Acceptance checks
# ---------------------------------------------------------------------------


class _Replica(NamedTuple):
    """What a check sees of one finished replica."""

    experiment: Experiment
    trace: Trace
    report: Any  # the welfare or resilience report
    target_alloc: tuple[int, ...]


def _share(value: Any, where: str) -> Fraction:
    return check_chance(parse_fraction(value, where), where)


def _g_fraction(value: Any, where: str) -> Fraction | str:
    return value if value == "auto" else _share(value, where)


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
    """Names the first unseparated round and agent when the check fails."""
    if not want:
        return None
    trace, types = run.trace, run.experiment.instance.types
    if separated_throughout(trace, types):
        return True, "every round separated", {}
    # states are kept in order of first play, so the first failing one is
    # the first unseparated round
    k, i = next((k, i) for k, step in enumerate(trace.states)
                for i, ok in enumerate(separated_flags(step.profile, types)) if not ok)
    profile = trace.states[k].profile
    set_mask, bid = profile[i]
    load = pressure(profile, i, set_mask, types[i].value_of(set_mask))
    return False, (f"round {trace.plays.index(k) + 1}: agent {i + 1} bids {bid} on set "
                   f"{set_mask} under pressure {load}"), {}


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
    per_agent = regret_report(run.trace, run.trace.agents)
    worst = max(per_agent, default=Fraction(0))
    detail = f"max regret {format_fraction(worst)} <= {format_fraction(want)}"
    return worst <= want, detail, {"regret": _by_agent(per_agent)}


def _coverage(want: Fraction | str, run: _Replica):
    if want == "auto":
        want = Fraction(1, 2) - run.experiment.epsilon
    types = run.experiment.instance.types
    fractions = coverage_report(run.trace, types, run.target_alloc)
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
    "expect_cycle_period": (_positive, _cycle),
    "expect_convergence": (_flag, _convergence),
    "max_regret_per_round": (parse_fraction, _regret),
    "min_g_fraction": (_g_fraction, _coverage),
    "replica_pass_fraction": (_share, None),
    "byzantine_restricted": (_flag, None),
}
KEYS["acceptance.checks"] = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def solve_oracle(where: str, solve: Callable, *args) -> tuple[tuple[int, ...], int]:
    """`solve(*args)`, an oracle call, with an instance too large for it invalid at `where`."""
    try:
        return solve(*args)
    except SizeError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def welfare_targets(experiment: Experiment) -> tuple[tuple[int, ...], int]:
    """The oracle's target allocation and the optimum the replicas are judged
    against: the full optimum, or under `byzantine_restricted` the optimum
    of the other agents' bids.  Both depend only on the experiment, so a run
    computes them once for all its replicas."""
    types, where = experiment.instance.types, f"{experiment.name}.instance"
    cap = experiment.cap if experiment.kind in ("greedy", "filtered-greedy") else None
    target_alloc, optimum = solve_oracle(where, optimal_welfare, types, cap)
    if experiment.checks.get("byzantine_restricted"):
        byzantine = experiment.byzantine_set()
        bids = [b for b in atoms_as_bids(types, cap) if b[0] not in byzantine]
        _, optimum = solve_oracle(where, optimal_allocation, bids, len(types), cap)
    return target_alloc, optimum


def run_replica(
    experiment: Experiment,
    base_seed: int,
    targets: tuple[tuple[int, ...], int],
    out_dir: Path,
    replica: int,
) -> tuple[dict, Fraction]:
    """Execute one replica, evaluate its checks against the experiment's
    `welfare_targets` and write its trace to `out_dir`; returns its summary
    dict and welfare ratio."""
    seed = replica_seed(base_seed, replica)
    config = experiment.run_config(seed)
    trace = (run_regret_dynamics if experiment.regret else run_best_response_dynamics)(config)

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
    run = _Replica(experiment, trace, report, target_alloc)
    results = []
    for name, (_, evaluate) in _CHECKS.items():
        if name in checks and evaluate is not None:
            outcome = evaluate(checks[name], run)
            if outcome is not None:
                passed, detail, fields = outcome
                results.append({"name": name, "pass": bool(passed), "detail": detail})
                summary.update(fields)
    summary["checks"] = results
    _write(out_dir / f"trace-replica{replica}.csv", trace_csv(trace, experiment))
    return summary, report.ratio


def separated_throughout(trace: Trace, types: Sequence[Valuation]) -> bool:
    """Whether every round's profile is separated; checks each distinct
    profile once."""
    profiles = dict.fromkeys(step.profile for step in trace.states)
    return all(all(separated_flags(p, types)) for p in profiles)


def _coin_text(coin) -> str:
    if coin.lottery_agent is not None:
        return f"lottery:{coin.lottery_agent + 1}"
    return "ignore-grand" if coin.ignore_grand else "-"


def trace_csv(trace: Trace, experiment: Experiment) -> str:
    """The trace as CSV, one row per round.  The text from `set_1` to
    `true_sw` is formatted once per state."""
    def columns(prefix: str) -> list[str]:
        return [f"{prefix}_{i + 1}" for i in range(trace.n_agents)]

    header = ["round", "updater", *columns("set"), *columns("bid"), "coin",
              *columns("won"), *columns("pay"), "declared_sw", "true_sw"]
    lines = [",".join(header)]
    texts = []
    for profile, coin, outcome, declared, true in trace.states:
        cells = [d.set_mask for d in profile] + [d.bid for d in profile]
        bids = "".join(f",{c}" for c in cells)
        wins = "".join(f",{c}" for c in outcome.allocation + outcome.payments)
        texts.append(f"{bids},{_coin_text(coin)}{wins},{declared},{true}")
    for t, (updater, k) in enumerate(zip(trace.updaters, trace.plays), 1):
        updater = "ALL" if updater == ALL_AGENTS else updater + 1
        lines.append(f"{t},{updater}{texts[k]}")
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ValidationError(f"--out-dir: {exc}") from None


def run_experiment(
    source: str | Path,
    out_dir: Optional[Path] = None,
    seed: Optional[int] = None,
    replicas: Optional[int] = None,
    overrides: Optional[dict] = None,
    workers: int = 1,
) -> int:
    """Run every replica, write one CSV per replica plus a summary JSON into
    `out_dir` (default `runs/<experiment name>`), and return the exit status
    (0 iff all configured checks pass)."""
    experiment = load_experiment(source, overrides)
    if out_dir is None:
        out_dir = Path("runs") / experiment.name
    base_seed = experiment.seed if seed is None else _whole(seed, "--seed")
    count = (experiment.replicas if replicas is None
             else _replicas(replicas, "--replicas", experiment.engine["rounds"]))
    workers = _positive(workers, "--workers", MAX_WORKERS)

    targets = welfare_targets(experiment)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"--out-dir: {exc}") from None
    # each replica writes its own trace, so a run holds one trace per process
    replica = partial(run_replica, experiment, base_seed, targets, out_dir)
    if workers > 1 and count > 1:  # a pool may start all its workers at once
        with ProcessPoolExecutor(max_workers=min(workers, count)) as pool:
            outputs = list(pool.map(replica, range(count)))
    else:
        outputs = list(map(replica, range(count)))
    summaries = [summary for summary, _ in outputs]
    ratios = [ratio for _, ratio in outputs]

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

    stats = aggregate(ratios, Fraction(0))
    document = {
        "experiment": experiment.name,
        "mechanism": experiment.mechanism_spec,
        "dynamics": {k: v for k, v in experiment.dynamics_spec.items() if k != "initial"},
        "seed": base_seed,
        "replicas": summaries,
        "run_checks": run_checks,
        "aggregate": {
            "ratio_min": format_fraction(stats.minimum),
            "ratio_median": format_fraction(stats.median),
        },
        "pass": bool(overall),
    }
    _write(out_dir / "summary.json", json.dumps(document, indent=2, sort_keys=True) + "\n")

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
    path, where = resolve_source(args.path)
    data = _read_json(path)
    if isinstance(data, dict) and ("instance" in data or "mechanism" in data):
        welfare_targets(_experiment_of(data, path, where))  # as `run` does before any round
        print(f"OK: experiment {args.path}")
    else:
        instance = parse_instance(data, where=where)
        size = f"{len(instance.types)} agents, {instance.item_count} items"
        print(f"OK: instance {args.path} ({size})")
    return 0


def cmd_scenarios(_args) -> int:
    for name in list_scenarios():
        print(name)
    return 0


def cmd_oracle(args) -> int:
    instance = load_instance(Path(args.path))
    cap = instance.cap if args.s is None else _cap(args.s, "--s")
    alloc, welfare = solve_oracle(args.path, optimal_welfare, instance.types, cap)
    print(f"optimal welfare: {welfare}")
    for i, mask in enumerate(alloc):
        if mask:
            print(f"agent {i + 1}: {{{', '.join(instance.names_for(mask))}}}")
    return 0


def cmd_run(args) -> int:
    overrides = {key: getattr(args, key) for key in _OVERRIDES if getattr(args, key) is not None}
    if args.scripted_order is not None:
        try:
            overrides["scripted_order"] = [int(x) for x in args.scripted_order.split(",")]
        except ValueError:
            raise ValidationError("--scripted-order: expected comma-separated agent ids") from None
    out_dir = Path(args.out_dir) if args.out_dir else None
    return run_experiment(args.source, out_dir, args.seed, args.replicas, overrides, args.workers)


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
