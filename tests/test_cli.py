import copy
import json
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from auctionlab import ValidationError, cli
from auctionlab.cli import (
    list_scenarios,
    load_experiment,
    load_instance,
    main,
    parse_fraction,
    run_experiment,
)

REQUIRED_SCENARIOS = {
    "appendix-c-cycle",
    "section-3-3",
    "random-sca",
    "random-ca",
    "byzantine-mix",
    "regret-theorem-3",
    "best-response-theorem-10",
    "ca-theorem-11",
}


def write_instance(path: Path, **overrides) -> Path:
    doc = {
        "m": 4,
        "items": ["a", "b", "c", "d"],
        "s": 2,
        "agents": [
            {"id": 1, "atoms": [{"items": ["a", "b"], "value": 4}, {"items": ["d"], "value": 6}]},
            {"id": 2, "atoms": [{"items": ["a"], "value": 2}, {"items": ["b", "c"], "value": 5}]},
            {"id": 3, "atoms": [{"items": ["c"], "value": 4}]},
            {"id": 4, "atoms": [{"items": ["d"], "value": 5}]},
        ],
    }
    doc.update(overrides)
    target = path / "instance.json"
    target.write_text(json.dumps(doc))
    return target


def write_experiment(path: Path, instance: Path, **overrides) -> Path:
    doc = {
        "instance": instance.name,
        "mechanism": {"kind": "greedy", "s": 2},
        "dynamics": {"kind": "best-response", "rounds": 30, "seed": 3, "replicas": 2},
        "agents": {"default": "best-response"},
        "acceptance": {"epsilon": "1/10", "checks": {"min_welfare_ratio": "1/2"}},
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            doc[key] = {**doc.get(key, {}), **value}
        else:
            doc[key] = value
    target = path / "run.experiment.json"
    target.write_text(json.dumps(doc))
    return target


class TestScenarios:
    def test_all_required_names_present(self):
        assert REQUIRED_SCENARIOS <= set(list_scenarios())
        assert len(list_scenarios()) >= 8

    def test_every_scenario_loads_and_validates(self):
        for name in list_scenarios():
            experiment = load_experiment(name)
            mechanism = experiment.build_mechanism()
            agents = experiment.build_agents(mechanism)
            assert len(agents) == len(experiment.instance.types)

    def test_shipped_cycle_instance_contents(self):
        experiment = load_experiment("appendix-c-cycle")
        inst = experiment.instance
        assert inst.item_count == 4
        assert len(inst.types) == 4
        assert inst.types[0].value_of(inst.mask_for(["d"], "t")) == 6
        assert inst.types[1].value_of(inst.mask_for(["b", "c"], "t")) == 5


class TestValidation:
    def test_valid_instance(self, tmp_path):
        inst = load_instance(write_instance(tmp_path))
        assert inst.item_count == 4
        assert inst.cap == 2
        assert len(inst.types) == 4

    def test_empty_agent_list_is_degenerate_but_valid(self, tmp_path):
        inst = load_instance(write_instance(tmp_path, agents=[]))
        assert inst.types == []

    def test_negative_value_rejected(self, tmp_path):
        path = write_instance(
            tmp_path,
            agents=[{"id": 1, "atoms": [{"items": ["a"], "value": -1}]}],
        )
        with pytest.raises(ValidationError, match="value"):
            load_instance(path)

    def test_non_contiguous_ids_rejected(self, tmp_path):
        path = write_instance(
            tmp_path,
            agents=[
                {"id": 1, "atoms": [{"items": ["a"], "value": 1}]},
                {"id": 3, "atoms": [{"items": ["b"], "value": 1}]},
            ],
        )
        with pytest.raises(ValidationError, match="contiguous"):
            load_instance(path)

    def test_item_count_over_cap_rejected(self, tmp_path):
        path = write_instance(tmp_path, m=40, items=[str(j) for j in range(40)], agents=[])
        with pytest.raises(ValidationError):
            load_instance(path)

    def test_unknown_item_label_rejected(self, tmp_path):
        path = write_instance(
            tmp_path,
            agents=[{"id": 1, "atoms": [{"items": ["z"], "value": 2}]}],
        )
        with pytest.raises(ValidationError, match="unknown item"):
            load_instance(path)

    def test_zero_rounds_rejected(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance, dynamics={"kind": "best-response", "rounds": 0})
        with pytest.raises(ValidationError, match="rounds"):
            load_experiment(path)

    def test_gamma_required_for_grand_bundle(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        doc = json.loads(path.read_text())
        doc["mechanism"] = {"kind": "grand-bundle"}  # no cap: grand-bundle reads none
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="gamma"):
            load_experiment(path)

    def test_gamma_rejected_elsewhere(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(
            tmp_path, instance, mechanism={"kind": "greedy", "gamma": "1/100"}
        )
        with pytest.raises(ValidationError, match="gamma"):
            load_experiment(path)

    def test_lottery_rejected_on_rule_mechanisms(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(
            tmp_path, instance,
            mechanism={"kind": "greedy", "s": 2, "appendix_b_lottery": "1/16"},
        )
        with pytest.raises(ValidationError, match="lottery"):
            load_experiment(path)

    def test_fraction_parsing(self):
        assert parse_fraction("3/4", "x") == Fraction(3, 4)
        assert parse_fraction(2, "x") == Fraction(2)
        with pytest.raises(ValidationError):
            parse_fraction("nope", "x")

    def test_validate_command(self, tmp_path, capsys):
        instance = write_instance(tmp_path)
        assert main(["validate", str(instance)]) == 0
        assert "OK" in capsys.readouterr().out
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == 2


class TestOracleCommand:
    def test_prints_optimum(self, tmp_path, capsys):
        instance = write_instance(tmp_path)
        assert main(["oracle", str(instance)]) == 0
        out = capsys.readouterr().out
        assert "optimal welfare: 13" in out
        assert "agent 1" in out

    def test_instance_too_large_for_the_oracle_is_invalid(self, tmp_path, capsys):
        items = [f"i{k}" for k in range(24)]
        agents = [{"id": 1, "atoms": [{"items": ["i0", "i23"], "value": 3}]}]
        instance = write_instance(tmp_path, m=24, items=items, agents=agents)
        assert main(["oracle", str(instance)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: {instance}: ") and "Traceback" not in err


class TestRunCommand:
    def test_experiment_file_round_trip(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        experiment = load_experiment(path)
        assert experiment.instance.item_count == 4
        assert experiment.dynamics_spec["rounds"] == 30

    def test_run_writes_traces_and_summary(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        out_dir = tmp_path / "out"
        status = run_experiment(path, out_dir)
        assert status == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["pass"] is True
        assert len(summary["replicas"]) == 2
        csv_text = (out_dir / "trace-replica0.csv").read_text()
        header = csv_text.splitlines()[0].split(",")
        assert header[:2] == ["round", "updater"]
        assert "declared_sw" in header and "true_sw" in header
        assert len(csv_text.splitlines()) == 31

    def test_traces_are_byte_identical_across_runs(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        first = tmp_path / "first"
        second = tmp_path / "second"
        run_experiment(path, first)
        run_experiment(path, second)
        assert (first / "trace-replica0.csv").read_bytes() == (
            second / "trace-replica0.csv"
        ).read_bytes()
        assert (first / "summary.json").read_bytes() == (second / "summary.json").read_bytes()

    def test_seed_override_changes_traces(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        base = tmp_path / "base"
        alt = tmp_path / "alt"
        run_experiment(path, base)
        run_experiment(path, alt, seed=99)
        assert (base / "trace-replica0.csv").read_text() != (alt / "trace-replica0.csv").read_text()

    def test_failing_check_sets_exit_status(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(
            tmp_path, instance,
            acceptance={"epsilon": "1/10", "checks": {"min_welfare_ratio": "99/100",
                                                      "replica_pass_fraction": "1"}},
        )
        # short random runs do not hold 99% of the optimum on average
        assert run_experiment(path, tmp_path / "fail", seed=2, replicas=3) == 1

    def test_run_via_main_with_flags(self, tmp_path, capsys):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        status = main([
            "run", str(path),
            "--out-dir", str(tmp_path / "cli-out"),
            "--seed", "7",
            "--replicas", "1",
            "--scripted-order", "3,4,1,2,1",
        ])
        assert status == 0
        assert "overall: PASS" in capsys.readouterr().out

    def test_worker_pool_matches_sequential(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(tmp_path, instance)
        seq = tmp_path / "seq"
        par = tmp_path / "par"
        # the override must reach the workers too, not only the summary
        overrides = {"scripted_order": [3, 4, 1, 2, 1, 2]}
        run_experiment(path, seq, replicas=2, overrides=overrides)
        run_experiment(path, par, replicas=2, overrides=overrides, workers=2)
        assert (seq / "summary.json").read_bytes() == (par / "summary.json").read_bytes()
        for name in ("trace-replica0.csv", "trace-replica1.csv"):
            assert (seq / name).read_bytes() == (par / name).read_bytes()

    def test_scenario_run_by_name(self, tmp_path, capsys):
        assert main(["run", "appendix-c-cycle", "--out-dir", str(tmp_path / "cyc")]) == 0
        out = capsys.readouterr().out
        assert "expect_cycle_period" in out
        summary = json.loads((tmp_path / "cyc" / "summary.json").read_text())
        assert summary["replicas"][0]["cycle"]["period"] == 4
        assert summary["replicas"][0]["converged"] is False

    def test_partition_scenario_exact_ratio_and_zero_regret(self, tmp_path):
        assert main(["run", "section-3-3", "--out-dir", str(tmp_path / "s33")]) == 0
        summary = json.loads((tmp_path / "s33" / "summary.json").read_text())
        replica = summary["replicas"][0]
        assert replica["welfare"]["ratio"] == "5/23"
        assert set(replica["regret"].values()) == {"0"}

    def test_degenerate_empty_instance_runs(self, tmp_path):
        instance = write_instance(tmp_path, agents=[])
        path = write_experiment(tmp_path, instance, dynamics={"rounds": 5, "replicas": 1})
        out_dir = tmp_path / "empty"
        assert run_experiment(path, out_dir) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["replicas"][0]["welfare"]["average"] == "0"
        assert summary["replicas"][0]["welfare"]["ratio"] == "1"

    def test_lottery_flag_reaches_the_mechanism(self, tmp_path):
        instance = write_instance(tmp_path)
        path = write_experiment(
            tmp_path, instance,
            mechanism={"kind": "filtered-greedy", "s": 2},
            acceptance={"epsilon": "1/10", "checks": {}},
        )
        out = tmp_path / "lottery"
        assert main([
            "run", str(path), "--out-dir", str(out),
            "--appendix-b-lottery", "1/3", "--seed", "5", "--replicas", "1",
        ]) == 0
        csv_text = (out / "trace-replica0.csv").read_text()
        assert "lottery:" in csv_text  # with p=1/3 over 30 rounds a draw fires


def _scenario_documents(name: str) -> tuple[dict, dict]:
    """The experiment and instance documents of a built-in scenario."""
    scenarios = resources.files("auctionlab") / "scenarios"
    experiment = json.loads((scenarios / f"{name}.experiment.json").read_text())
    return experiment, json.loads((scenarios / experiment["instance"]).read_text())


def _copy_scenario(tmp_path: Path, name: str, edit) -> Path:
    """Copy a built-in experiment and its instance, letting `edit` change
    the two documents first."""
    experiment, instance = _scenario_documents(name)
    ref = experiment["instance"]
    edit(experiment, instance)
    (tmp_path / ref).write_text(json.dumps(instance))
    target = tmp_path / f"{name}.experiment.json"
    target.write_text(json.dumps(experiment))
    return target


def _override_key(experiment, instance):
    experiment["agents"]["overrides"] = {"x": "byzantine"}


def _agents_as_list(experiment, instance):
    experiment["agents"] = ["mw"]


def _agent_entry_not_object(experiment, instance):
    instance["agents"][0] = 5


def _missing_partition_side(experiment, instance):
    del experiment["mechanism"]["partition_a"]


def _gamma_out_of_range(experiment, instance):
    experiment["mechanism"]["gamma"] = "3/2"


def _instance_agents_not_list(experiment, instance):
    instance["agents"] = 5


def _overrides_not_object(experiment, instance):
    experiment["agents"]["overrides"] = ["byzantine"]


def _checks_not_object(experiment, instance):
    experiment["acceptance"]["checks"] = ["min_welfare_ratio"]


def _initial_entry_without_items(experiment, instance):
    experiment["dynamics"]["initial"] = [{"id": 1, "bid": 3}]


def _no_rounds(config):
    raise AssertionError("the engine ran on a malformed experiment")


def _best_responders_under_regret(experiment, instance):
    experiment["agents"]["default"] = "best-response"


def _regret_bound_not_rational(experiment, instance):
    experiment["acceptance"]["checks"]["max_regret_per_round"] = "abc"


def _misspelt_check(experiment, instance):
    checks = experiment["acceptance"]["checks"]
    checks["welfare_ratio_equal"] = checks.pop("welfare_ratio_equals")


def _lone_pass_fraction(experiment, instance):
    del experiment["acceptance"]["checks"]["min_welfare_ratio"]


def _scripted_order_not_list(experiment, instance):
    experiment["dynamics"]["scripted_order"] = 5


def _initial_not_list(experiment, instance):
    experiment["dynamics"]["initial"] = 5


def _cap_as_string(experiment, instance):
    experiment["mechanism"]["s"] = "2"


def _instance_ref_not_string(experiment, instance):
    experiment["instance"] = 5


def _partition_side_not_list(experiment, instance):
    experiment["mechanism"]["partition_a"] = 3


def _lottery_out_of_range(experiment, instance):
    experiment["mechanism"]["appendix_b_lottery"] = "2"


def _rounds_as_bool(experiment, instance):
    experiment["dynamics"]["rounds"] = True


def _atom_value_as_bool(experiment, instance):
    instance["agents"][0]["atoms"][0]["value"] = True


def _initial_bid_as_bool(experiment, instance):
    experiment["dynamics"]["initial"][0]["bid"] = True


def _seed_as_string(experiment, instance):
    experiment["dynamics"]["seed"] = "x"


def _keep_on_tie_as_string(experiment, instance):
    experiment["dynamics"]["keep_on_tie"] = "x"


def _empty_start_as_string(experiment, instance):
    experiment["dynamics"]["empty_start"] = "x"


def _misspelt_acceptance(experiment, instance):
    experiment["acceptence"] = experiment.pop("acceptance")


def _misspelt_replicas(experiment, instance):
    experiment["dynamics"]["replica"] = experiment["dynamics"].pop("replicas")


def _misspelt_lottery(experiment, instance):
    experiment["mechanism"]["lotery"] = "1/16"


def _extra_instance_agent_key(experiment, instance):
    instance["agents"][0]["name"] = "first"


def _extra_initial_entry_key(experiment, instance):
    experiment["dynamics"]["initial"][0]["note"] = "stuck"


def _regret_key(key, value):
    def edit(experiment, instance):
        experiment["dynamics"][key] = value
    return edit


def _override_id(key):
    def edit(experiment, instance):
        experiment["agents"]["overrides"] = {key: "byzantine"}
    return edit


def _partition_side_on_greedy(experiment, instance):
    experiment["mechanism"]["partition_a"] = ["a"]


def _null_lottery(experiment, instance):
    experiment["mechanism"]["appendix_b_lottery"] = None


def _cap_on_grand_bundle(experiment, instance):
    experiment["mechanism"]["s"] = 1


def _duplicate_initial_id(experiment, instance):
    experiment["dynamics"]["initial"].append({"id": 1, "items": ["a1"], "bid": 2})


def _oversize_instance(experiment, instance):
    # valid, but spanning more items than the oracle solves
    instance["items"] += [f"x{k}" for k in range(instance["m"], 24)]
    instance["m"] = 24
    instance["agents"][0]["atoms"].append({"items": [instance["items"][0], "x23"], "value": 1})


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "name, edit",
    [
        ("byzantine-mix", _override_key),
        ("regret-theorem-3", _agents_as_list),
        ("appendix-c-cycle", _agent_entry_not_object),
        ("section-3-3", _missing_partition_side),
        ("ca-theorem-11", _gamma_out_of_range),
        ("appendix-c-cycle", _instance_agents_not_list),
        ("byzantine-mix", _overrides_not_object),
        ("regret-theorem-3", _checks_not_object),
        ("random-sca", _initial_entry_without_items),
        ("regret-theorem-3", _best_responders_under_regret),
        ("regret-theorem-3", _regret_bound_not_rational),
        ("section-3-3", _misspelt_check),
        ("random-ca", _lone_pass_fraction),
        ("appendix-c-cycle", _scripted_order_not_list),
        ("section-3-3", _initial_not_list),
        ("appendix-c-cycle", _cap_as_string),
        ("regret-theorem-3", _instance_ref_not_string),
        ("section-3-3", _partition_side_not_list),
        ("ca-theorem-11", _lottery_out_of_range),
        ("appendix-c-cycle", _rounds_as_bool),
        ("appendix-c-cycle", _atom_value_as_bool),
        ("section-3-3", _initial_bid_as_bool),
        ("appendix-c-cycle", _seed_as_string),
        ("appendix-c-cycle", _keep_on_tie_as_string),
        ("appendix-c-cycle", _empty_start_as_string),
        ("random-ca", _misspelt_acceptance),
        ("appendix-c-cycle", _misspelt_replicas),
        ("ca-theorem-11", _misspelt_lottery),
        ("appendix-c-cycle", _extra_instance_agent_key),
        ("section-3-3", _extra_initial_entry_key),
        ("regret-theorem-3", _regret_key("scripted_order", [1, 2])),
        ("regret-theorem-3", _regret_key("initial", [{"id": 1, "items": ["a"], "bid": 1}])),
        ("regret-theorem-3", _regret_key("empty_start", True)),
        ("regret-theorem-3", _regret_key("keep_on_tie", False)),
        ("byzantine-mix", _override_id("0_4")),
        ("byzantine-mix", _override_id(" 4")),
        ("appendix-c-cycle", _partition_side_on_greedy),
        ("ca-theorem-11", _null_lottery),
        ("ca-theorem-11", _cap_on_grand_bundle),
        ("section-3-3", _duplicate_initial_id),
        ("appendix-c-cycle", _oversize_instance),
    ],
    ids=["override-key", "agents-list", "agent-entry", "partition-side", "gamma",
         "instance-agents", "overrides", "checks", "initial-entry",
         "regret-best-response", "regret-bound", "unknown-check", "lone-pass-fraction",
         "scripted-order-type", "initial-type", "cap-type", "instance-ref-type",
         "partition-side-type", "lottery-range", "rounds-bool", "atom-value-bool",
         "initial-bid-bool", "seed-type", "keep-on-tie-type", "empty-start-type",
         "unknown-acceptance", "unknown-dynamics-key", "unknown-mechanism-key",
         "unknown-instance-agent-key", "unknown-initial-entry-key", "regret-scripted-order",
         "regret-initial", "regret-empty-start", "regret-keep-on-tie", "override-id-underscore",
         "override-id-space", "partition-side-on-greedy", "lottery-null", "cap-on-grand-bundle",
         "duplicate-initial-id", "oversize-instance"],
)
def test_malformed_experiment_is_invalid_in_validate_and_run(
    tmp_path, capsys, monkeypatch, command, name, edit
):
    path = _copy_scenario(tmp_path, name, edit)
    argv = [command, str(path)]
    if command == "run":
        argv += ["--replicas", "1", "--out-dir", str(tmp_path / "out")]
    # a bad experiment is rejected before any round runs
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: ") and "Traceback" not in err


def test_malformed_scripted_order_flag_is_invalid(tmp_path, capsys):
    argv = ["run", "appendix-c-cycle", "--scripted-order", "1,b", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("INVALID: --scripted-order")


@pytest.mark.parametrize(
    "argv, where",
    [
        (["appendix-c-cycle", "--replicas", "0"], "--replicas"),
        (["appendix-c-cycle", "--replicas", "-3"], "--replicas"),
        (["appendix-c-cycle", "--gamma", "1/2"], "--gamma"),
        (["appendix-c-cycle", "--appendix-b-lottery", "1/2"], "--appendix-b-lottery"),
        (["appendix-c-cycle", "--scripted-order", "0"], "--scripted-order"),
        (["byzantine-mix", "--scripted-order", "1,2"], "--scripted-order"),
        (["appendix-c-cycle", "--workers", "0"], "--workers"),
        (["appendix-c-cycle", "--workers", "-2"], "--workers"),
        (["ca-theorem-11", "--gamma", "2"], "--gamma"),
        (["ca-theorem-11", "--appendix-b-lottery", "3/2"], "--appendix-b-lottery"),
    ],
)
def test_run_flags_obey_the_rules_of_their_keys(tmp_path, capsys, monkeypatch, argv, where):
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    assert main(["run", *argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {where}: ") and "Traceback" not in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_cap_flag_is_checked_like_s(capsys, cap):
    instance = resources.files("auctionlab") / "scenarios" / "appendix_c.instance.json"
    assert main(["oracle", str(instance), "--s", cap]) == 2
    assert capsys.readouterr().err.startswith("INVALID: --s: ")


def test_random_start_on_filtered_mechanism_needs_the_lottery(tmp_path, capsys):
    def random_start(experiment, instance):
        experiment["dynamics"]["empty_start"] = False

    assert main(["validate", str(_copy_scenario(tmp_path, "random-sca", random_start))]) == 2
    assert capsys.readouterr().err.startswith("INVALID: random-sca.dynamics.empty_start: ")

    def with_lottery(experiment, instance):
        random_start(experiment, instance)
        experiment["mechanism"]["appendix_b_lottery"] = "1/16"

    assert main(["validate", str(_copy_scenario(tmp_path, "random-sca", with_lottery))]) == 0


# Where each object of `cli.KEYS` sits in the section-3-3 scenario's files.
_OBJECTS = {
    "instance": lambda experiment, instance: instance,
    "instance.agents[]": lambda experiment, instance: instance["agents"][0],
    "instance.agents[].atoms[]": lambda experiment, instance: instance["agents"][0]["atoms"][0],
    "experiment": lambda experiment, instance: experiment,
    "mechanism": lambda experiment, instance: experiment["mechanism"],
    "dynamics": lambda experiment, instance: experiment["dynamics"],
    "dynamics.initial[]": lambda experiment, instance: experiment["dynamics"]["initial"][0],
    "agents": lambda experiment, instance: experiment["agents"],
    "acceptance": lambda experiment, instance: experiment["acceptance"],
    "acceptance.checks": lambda experiment, instance: experiment["acceptance"]["checks"],
}


def test_every_declared_object_has_a_location():
    assert set(_OBJECTS) == set(cli.KEYS)


@pytest.mark.parametrize("kind", sorted(_OBJECTS))
def test_undeclared_key_is_invalid_in_every_object(tmp_path, capsys, kind):
    def add_key(experiment, instance):
        _OBJECTS[kind](experiment, instance)["undeclared"] = 1

    path = _copy_scenario(tmp_path, "section-3-3", add_key)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: ") and ".undeclared: unknown key" in err


def test_readme_file_formats_name_every_declared_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    # a key is named as "key" in an example, or as `key` or `path.key` in the text
    missing = [
        f"{kind}.{key}" for kind, keys in cli.KEYS.items() for key in keys
        if not re.search(rf'[`".]{key}[`"]', section)
    ]
    assert not missing


# The keys no built-in scenario holds, each added to a copy of a scenario
# whose kind reads it, with a valid value.
_ADDED_KEYS = {
    ("mechanism", "appendix_b_lottery"): ("random-sca", "1/16"),
    ("dynamics", "empty_start"): ("appendix-c-cycle", True),
    ("dynamics", "keep_on_tie"): ("appendix-c-cycle", False),
}


def _holder(kind: str, key: str) -> tuple[str, object]:
    """A built-in scenario whose object `kind` holds `key`, and its value there."""
    for name in list_scenarios():
        try:
            found = _OBJECTS[kind](*_scenario_documents(name))
        except (KeyError, IndexError):
            continue
        if key in found:
            return name, found[key]
    return _ADDED_KEYS[kind, key]


@pytest.mark.parametrize(
    "kind, key", [(kind, key) for kind, keys in cli.KEYS.items() for key in keys]
)
def test_wrong_typed_value_is_invalid_at_its_key(tmp_path, capsys, kind, key):
    name, value = _holder(kind, key)
    wrong = 7 if isinstance(value, (dict, list)) else [1]

    def set_wrong(experiment, instance):
        _OBJECTS[kind](experiment, instance)[key] = wrong

    assert main(["validate", str(_copy_scenario(tmp_path, name, set_wrong))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: ")
    where = err[len("INVALID: "):].split(": ")[0]
    assert where.endswith(f".{key}"), err


_WRONG_VALUES = (None, True, -1, "x", "1/0", [], {}, [1])


def _positions(doc, prefix=()):
    """The path of every value below the root of a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield prefix + (key,)
            yield from _positions(value, prefix + (key,))


def _mutated(doc, positions, rng):
    """A copy of `doc` with one key deleted or one value replaced by a
    wrong-typed value, at a random depth."""
    doc = copy.deepcopy(doc)
    path = rng.choice(positions)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if rng.random() < 0.25:
        del parent[path[-1]]
        return doc, f"del {path}"
    parent[path[-1]] = value = rng.choice(_WRONG_VALUES)
    return doc, f"{path} = {value!r}"


def test_mutated_scenario_files_validate_without_traceback(tmp_path, capsys):
    """`validate` on damaged copies of every built-in scenario exits 0 or 2
    and never raises; exit 2 comes with an `INVALID: ` line."""
    rng = random.Random(4)
    problems = []
    for name in list_scenarios():
        experiment, instance = _scenario_documents(name)
        ref = experiment["instance"]
        documents = {"experiment": experiment, "instance": instance}
        positions = {kind: list(_positions(doc)) for kind, doc in documents.items()}
        paths = {"experiment": tmp_path / f"{name}.experiment.json", "instance": tmp_path / ref}
        for _ in range(40):
            for kind, doc in documents.items():
                mutated, change = _mutated(doc, positions[kind], rng)
                for other, path in paths.items():
                    path.write_text(json.dumps(mutated if other == kind else documents[other]))
                for target in dict.fromkeys((paths["experiment"], paths[kind])):
                    try:
                        code = main(["validate", str(target)])
                    except Exception as exc:  # noqa: BLE001 - any escape is the failure
                        code = f"{type(exc).__name__}: {exc}"
                    err = capsys.readouterr().err
                    if code not in (0, 2) or (code == 2) != err.startswith("INVALID: "):
                        problems.append(f"{name} {kind} {change}, validate {target.name}: "
                                        f"exit {code}, stderr {err!r}")
    assert not problems, "\n".join(problems[:20])
