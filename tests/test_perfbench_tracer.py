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


def _traced_run(tmp_path, scenario):
    """The tracer after `auctionlab run <scenario> --replicas 1`."""
    tracing = _tracer_module()
    tracer = tracing.Tracer()
    package = SimpleNamespace(
        core=core, algorithms=algorithms, mechanisms=mechanisms, agents=agents,
        dynamics=dynamics, metrics=metrics, generate=generate, cli=cli,
    )
    tracing.install(tracer, package)
    try:
        argv = ["run", scenario, "--replicas", "1", "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    return tracer


def test_tracer_records_replicas_checks_and_export(tmp_path):
    tracer = _traced_run(tmp_path, "appendix-c-cycle")
    for layer in ("cli.run_replica", "cli.checks", "cli.export"):
        assert tracer.calls[layer] > 0, f"{layer} recorded no calls"


def test_tracer_counts_every_learner_and_byzantine_call(tmp_path):
    tracer = _traced_run(tmp_path, "byzantine-mix")
    experiment = cli.load_experiment("byzantine-mix")
    rounds = experiment.dynamics_spec["rounds"]
    learners = experiment.behaviors.count("mw")
    byzantine = experiment.behaviors.count("byzantine")
    assert learners and byzantine
    assert tracer.calls["agents.learner_choose"] == rounds * learners
    assert tracer.calls["agents.learner_update"] == rounds * learners
    assert tracer.counts["agents.byzantine_bid"] == rounds * byzantine
