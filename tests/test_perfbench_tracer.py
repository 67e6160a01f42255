"""The benchmark's span tracer (`perfbench/tracer.py`) wraps entry points
by module-global name.  A rename, or a reference captured at import time,
would silently hide a layer from `perfbench/run.py --trace 1`; this test
makes that a test failure instead."""
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from auctionlab import agents, algorithms, cli, core, dynamics, generate, mechanisms, metrics

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced(run):
    """The tracer after `run()`, called with the tracer installed."""
    tracing = _tracer_module()
    tracer = tracing.Tracer()
    package = SimpleNamespace(
        core=core, algorithms=algorithms, mechanisms=mechanisms, agents=agents,
        dynamics=dynamics, metrics=metrics, generate=generate, cli=cli,
    )
    tracing.install(tracer, package)
    try:
        run()
    finally:
        tracer.uninstall()
    return tracer


def _traced_run(tmp_path, scenario):
    """The tracer after `auctionlab run <scenario> --replicas 1`."""
    argv = ["run", scenario, "--replicas", "1", "--out-dir", str(tmp_path)]

    def run():
        assert cli.main(argv) == 0

    return _traced(run)


def test_tracer_records_replicas_checks_and_export(tmp_path):
    tracer = _traced_run(tmp_path, "appendix-c-cycle")
    for layer in ("cli.load", "cli.run_replica", "cli.checks", "cli.export"):
        assert tracer.calls[layer] > 0, f"{layer} recorded no calls"


def test_tracer_counts_every_learner_and_byzantine_call(tmp_path):
    tracer = _traced_run(tmp_path, "byzantine-mix")
    experiment = cli.load_experiment("byzantine-mix")
    rounds = experiment.dynamics_spec["rounds"]
    assert set(experiment.behaviors) == {"mw", "byzantine"}
    byzantine = experiment.behaviors.count("byzantine")
    # one MW state runs every learner of the run, once per round, and each
    # byzantine bidder draws its bids from one stream per run
    assert tracer.calls["agents.learner_choose"] == rounds
    assert tracer.calls["agents.learner_update"] == rounds
    assert tracer.counts["agents.byzantine_bid"] == byzantine


def test_tracer_counts_one_call_per_learner_kind_per_round(cycle_types, cycle_mechanism):
    behaviors = [agents.WeightedLearner(), agents.PerturbedLearner(), agents.WeightedLearner(),
                 agents.ByzantineBidder()]
    models = [agents.make_agent(i, t, b, cycle_mechanism)
              for i, (t, b) in enumerate(zip(cycle_types, behaviors))]
    rounds = 300
    config = dynamics.RunConfig(mechanism=cycle_mechanism, agents=models, rounds=rounds, seed=3)
    tracer = _traced(lambda: dynamics.run_regret_dynamics(config))
    assert tracer.calls["agents.learner_choose"] == 2 * rounds
    assert tracer.calls["agents.learner_update"] == 2 * rounds
    assert tracer.counts["agents.byzantine_bid"] == 1
