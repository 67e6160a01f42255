"""Span tracer installed from outside the package.

`install` replaces the public entry points of each auctionlab module with
timing wrappers, in every namespace where callers look them up (the
defining module, the modules that imported the name, and the classes that
define a method).  Each wrapper records a span (id, name, start, end,
parent id) and adds its duration to the parent span's child time, so a
layer's self time is its span time minus its child spans.  A wrapper that
is entered while a span of the same name is open passes straight through,
so a call counts once at its outermost level.  Spans and counts stay in
memory and are written out by `dump` at the end of a run.
"""
from __future__ import annotations

import functools
import json
import pathlib
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 100_000  # spans kept for the dump; self times and counts cover all


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, start, child seconds, id]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.paused = False
        self._depth: Counter = Counter()
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, after=None):
        """Timed wrapper; `after(result)` runs outside every span's self time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if tracer.paused or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[name] += duration - frame[2]
                tracer.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, name, frame[1], end, parent[3] if parent else -1)
                    )
                else:
                    tracer.dropped += 1
            if after is not None:
                started = perf_counter()
                after(result)
                if stack:
                    stack[-1][2] += perf_counter() - started
            return result

        return traced

    def counter(self, name, fn):
        """Untimed wrapper that counts outermost calls."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.paused or tracer._depth[name]:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            tracer._depth[name] = 1
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._depth[name] = 0

        return counted

    def patch(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def dump(self, path: pathlib.Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta, "spans_dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent in self.spans:
                out.write(json.dumps([span_id, name, start, end, parent]) + "\n")
            out.write(json.dumps({
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
            }) + "\n")


def _dynamics_counts(tracer: Tracer):
    """Post-hook on the round engines: what the engine did in one run."""

    def after(trace) -> None:
        records = trace.records
        tracer.counts["dynamics.rounds"] += len(records)
        tracer.counts["dynamics.profile_changes"] += sum(
            1 for a, b in zip(records, records[1:]) if a.profile != b.profile
        )
        tracer.counts["dynamics.distinct_states"] += len({(r.profile, r.coin) for r in records})

    return after


def _export_bytes(tracer: Tracer, fn):
    def write_text(self, data, *args, **kwargs):
        tracer.counts["cli.export.bytes"] += len(data.encode())
        return fn(self, data, *args, **kwargs)

    return write_text


def install(tracer: Tracer, al) -> None:
    """Wrap every traced entry point of the package bundle `al` (an object
    with the modules as attributes)."""
    alg, core, mech, agents, dyn, met, gen, cli = (
        al.algorithms, al.core, al.mechanisms, al.agents, al.dynamics,
        al.metrics, al.generate, al.cli,
    )

    def function(span_name, home, attr, *importers, after=None):
        traced = tracer.span(span_name, getattr(home, attr), after)
        for module in (home,) + importers:
            tracer.patch(module, attr, traced)
        return traced

    def method(span_name, classes, attr, count_only=False):
        for cls in classes:
            if attr in cls.__dict__:
                fn = cls.__dict__[attr]
                wrap = tracer.counter(span_name, fn) if count_only else tracer.span(span_name, fn)
                tracer.patch(cls, attr, wrap)

    # algorithms and core
    function("algorithms.greedy_allocate", alg, "greedy_allocate", mech)
    function("algorithms.greedy_acceptances", alg, "greedy_acceptances")
    oracle = function("algorithms.optimal_allocation", alg, "optimal_allocation")
    function("core.social_welfare", core, "social_welfare", dyn)

    # mechanisms
    classes = (mech.Mechanism, mech.RuleMechanism, mech.FilteredGreedyMechanism,
               mech.GrandBundleMechanism)
    method("mechanisms.outcome", classes, "outcome")
    method("mechanisms.critical_price", classes, "critical_price")
    method("mechanisms.expected_utility", classes, "expected_utility")
    method("mechanisms.counterfactual_utilities", classes, "counterfactual_utilities")
    method("mechanisms.allocate", classes, "_allocate", count_only=True)
    method("mechanisms.wins", classes, "wins", count_only=True)
    tracer.patch(mech, "search_critical_price",
                 tracer.counter("mechanisms.search", mech.search_critical_price))
    flags = function("mechanisms.separated_flags", mech, "separated_flags")

    # agents
    function("agents.best_response", agents, "best_response", dyn)
    function("agents.external_regret", agents, "external_regret", met)
    tracer.patch(agents, "byzantine_bid",
                 tracer.counter("agents.byzantine_bid", agents.byzantine_bid))
    tracer.patch(dyn, "byzantine_bid", agents.byzantine_bid)
    learners = (agents.WeightedLearnerState, agents.PerturbedLearnerState)
    method("agents.learner_choose", learners, "choose")
    method("agents.learner_update", learners, "update")

    # dynamics
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        function("dynamics.engine", dyn, engine, cli, after=_dynamics_counts(tracer))

    # metrics
    welfare = function("metrics.welfare_report", met, "welfare_report")
    resilience = function("metrics.welfare_report", met, "resilience_report")
    regret_report = function("metrics.regret_report", met, "regret_report")
    coverage = function("metrics.coverage_report", met, "coverage_report")

    # generate (nested generator calls fold into the outermost span)
    for attr in ("random_bundle", "random_valuation", "random_types", "random_profile",
                 "truthful_profile"):
        function("generate", gen, attr)

    # cli: the names run_replica and run_experiment look up in their module
    function("cli.load", cli, "load_experiment")
    function("cli.run_replica", cli, "run_replica")
    tracer.patch(cli, "optimal_allocation", tracer.span("cli.oracle", oracle))
    tracer.patch(cli, "optimal_welfare", tracer.span("cli.oracle", alg.optimal_welfare))
    tracer.patch(cli, "welfare_report", welfare)
    tracer.patch(cli, "resilience_report", resilience)
    for attr, inner in (("separated_flags", flags), ("detect_cycle", dyn.detect_cycle),
                        ("constant_tail_start", dyn.constant_tail_start),
                        ("regret_report", regret_report), ("coverage_report", coverage)):
        tracer.patch(cli, attr, tracer.span("cli.checks", inner))
    function("cli.export", cli, "trace_csv")
    tracer.patch(pathlib.Path, "write_text",
                 tracer.span("cli.export", _export_bytes(tracer, pathlib.Path.write_text)))


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics as {name: (value, unit)}."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in ("cli.load", "cli.run_replica", "cli.checks", "cli.export",
                 "dynamics.engine", "mechanisms.separated_flags", "agents.external_regret",
                 "metrics.welfare_report", "metrics.regret_report", "metrics.coverage_report",
                 "generate"):
        out[f"{name}.s"] = (s[name], "s")
    for name in ("cli.oracle", "mechanisms.outcome", "mechanisms.critical_price",
                 "mechanisms.expected_utility", "mechanisms.counterfactual_utilities",
                 "agents.best_response", "agents.learner_choose", "agents.learner_update",
                 "algorithms.greedy_allocate", "algorithms.greedy_acceptances",
                 "algorithms.optimal_allocation", "core.social_welfare"):
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (s[name], "s")
    rounds = counts["dynamics.rounds"]
    out["cli.export.bytes"] = (counts["cli.export.bytes"], "bytes")
    out["dynamics.rounds"] = (rounds, "count")
    out["dynamics.profile_changes"] = (counts["dynamics.profile_changes"], "count")
    out["dynamics.distinct_states"] = (counts["dynamics.distinct_states"], "count")
    out["dynamics.state_reuse"] = (
        1 - ratio(counts["dynamics.distinct_states"], rounds) if rounds else 0.0, "ratio")
    out["mechanisms.critical_price.per_round"] = (
        ratio(calls["mechanisms.critical_price"], rounds), "ratio")
    out["mechanisms.allocate.calls"] = (counts["mechanisms.allocate"], "count")
    out["mechanisms.allocate.per_price"] = (
        ratio(counts["mechanisms.allocate"], calls["mechanisms.critical_price"]), "ratio")
    out["mechanisms.wins.calls"] = (counts["mechanisms.wins"], "count")
    out["mechanisms.wins.per_search"] = (
        ratio(counts["mechanisms.wins"], counts["mechanisms.search"]), "ratio")
    out["agents.byzantine_bid.calls"] = (counts["agents.byzantine_bid"], "count")
    return out
