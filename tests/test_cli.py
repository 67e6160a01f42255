import copy
import json
import random
import re
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from auctionlab import SizeError, ValidationError, algorithms, cli, dynamics
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
        assert parse_fraction("-6/8", "x") == Fraction(-3, 4)
        assert parse_fraction("+2", "x") == Fraction(2)
        assert parse_fraction(2, "x") == Fraction(2)
        # only a JSON integer or a "p/q" string: no decimals, exponents,
        # spaces, underscores, signed denominators or booleans
        for bad in ("nope", "0.01", "1e-100000", "1/2.5", " 3/4", "1_000", "3/-4", "1/0",
                    True, 0.5):
            with pytest.raises(ValidationError):
                parse_fraction(bad, "x")

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

    @pytest.mark.parametrize("want", [False, True])
    def test_require_separated_false_asks_for_nothing(self, tmp_path, monkeypatch, capsys, want):
        """`require_separated: false` adds no row to any replica's checks and
        computes no separation; `true` adds one row per replica."""
        instance = write_instance(tmp_path)
        path = write_experiment(
            tmp_path, instance, acceptance={"checks": {"require_separated": want}}
        )
        if not want:
            def unasked(trace, types):
                raise AssertionError("separation computed although no check asks for it")

            monkeypatch.setattr(cli, "separated_throughout", unasked)
        status = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        rows = [[item["name"] for item in replica["checks"]] for replica in summary["replicas"]]
        assert rows == [["require_separated"] if want else []] * 2
        printed = re.findall(r"(?:PASS|FAIL) (\w+):", capsys.readouterr().out)
        assert printed == (["require_separated"] * 2 if want else [])
        if not want:
            assert status == 0 and summary["pass"]


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


def _gamma_with_exponent(experiment, instance):
    experiment["mechanism"]["gamma"] = "1e-100000"


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


def _instance_ref_with_nul(experiment, instance):
    experiment["instance"] = "nul\u0000.instance.json"


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


def _learner_under_best_response(experiment, instance):
    experiment["agents"]["default"] = "mw"


def _override_to_learner(experiment, instance):
    experiment["agents"]["overrides"] = {"2": "fpl"}


def _initial_with_random_start(experiment, instance):
    experiment["dynamics"]["empty_start"] = False


def _item_as_index(experiment, instance):
    instance["agents"][0]["atoms"][0]["items"] = [0]


def _pass_fraction_out_of_range(experiment, instance):
    # a share below 0 would pass any run, even one that asks for ratio 2
    experiment["acceptance"]["checks"].update(min_welfare_ratio="2", replica_pass_fraction="-1")


def _g_fraction_out_of_range(experiment, instance):
    experiment["acceptance"]["checks"]["min_g_fraction"] = "-1"


def _random_start_with_zero_lottery(experiment, instance):
    experiment["mechanism"]["appendix_b_lottery"] = "0"
    experiment["dynamics"]["empty_start"] = False


def _epsilon_out_of_range(experiment, instance):
    # with min_g_fraction "auto" (1/2 - epsilon), an epsilon of 1 passes every replica
    experiment["acceptance"]["epsilon"] = "1"


def _one_item(mechanism):
    def edit(experiment, instance):
        experiment["mechanism"] = mechanism
        instance.update(m=1, items=["a"])
        for agent in instance["agents"]:
            agent["atoms"] = [{"items": ["a"], "value": agent["id"]}]
    return edit


def _duplicate_atom(experiment, instance):
    instance["agents"][0]["atoms"][1]["items"] = ["b", "a"]


def _dynamics_count(key, value):
    def edit(experiment, instance):
        experiment["dynamics"][key] = value
    return edit


def _atom_value(value):
    def edit(experiment, instance):
        instance["agents"][0]["atoms"][0]["value"] = value
    return edit


def _disjoint_values(value):
    def edit(experiment, instance):
        for agent, item in zip(instance["agents"][:2], instance["items"]):
            agent["atoms"] = [{"items": [item], "value": value}]
    return edit


def _initial_bids(bid):
    def edit(experiment, instance):
        experiment["dynamics"]["initial"] = [
            {"id": aid, "items": [item], "bid": bid} for aid, item in ((1, "a"), (2, "b"))]
    return edit


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
        ("ca-theorem-11", _gamma_with_exponent),
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
        ("regret-theorem-3", _instance_ref_with_nul),
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
        ("appendix-c-cycle", _learner_under_best_response),
        ("appendix-c-cycle", _override_to_learner),
        ("section-3-3", _initial_with_random_start),
        ("appendix-c-cycle", _item_as_index),
        ("random-ca", _pass_fraction_out_of_range),
        ("random-sca", _g_fraction_out_of_range),
        ("random-ca", _random_start_with_zero_lottery),
        ("best-response-theorem-10", _epsilon_out_of_range),
        ("appendix-c-cycle", _one_item({"kind": "grand-bundle", "gamma": "1/10"})),
        ("appendix-c-cycle", _one_item({"kind": "two-tier"})),
        ("appendix-c-cycle", _duplicate_atom),
        ("byzantine-mix", _override_id("04")),
        ("appendix-c-cycle", _dynamics_count("rounds", 2**63)),
        ("regret-theorem-3", _dynamics_count("rounds", 2**63)),
        ("appendix-c-cycle", _dynamics_count("replicas", 2**63)),
        ("regret-theorem-3", _atom_value(10**400)),
        ("appendix-c-cycle", _disjoint_values(10**4299)),
        ("appendix-c-cycle", _initial_bids(10**4299)),
    ],
    ids=["override-key", "agents-list", "agent-entry", "partition-side", "gamma",
         "gamma-exponent",
         "instance-agents", "overrides", "checks", "initial-entry",
         "regret-best-response", "regret-bound", "unknown-check", "lone-pass-fraction",
         "scripted-order-type", "initial-type", "cap-type", "instance-ref-type",
         "instance-ref-nul",
         "partition-side-type", "lottery-range", "rounds-bool", "atom-value-bool",
         "initial-bid-bool", "seed-type", "keep-on-tie-type", "empty-start-type",
         "unknown-acceptance", "unknown-dynamics-key", "unknown-mechanism-key",
         "unknown-instance-agent-key", "unknown-initial-entry-key", "regret-scripted-order",
         "regret-initial", "regret-empty-start", "regret-keep-on-tie", "override-id-underscore",
         "override-id-space", "partition-side-on-greedy", "lottery-null", "cap-on-grand-bundle",
         "duplicate-initial-id", "oversize-instance", "best-response-mw", "best-response-fpl",
         "initial-random-start", "item-index", "pass-fraction-range", "g-fraction-range",
         "zero-lottery-random-start", "epsilon-range", "one-item-grand-bundle",
         "one-item-two-tier", "duplicate-atom", "overrides-leading-zero",
         "rounds-2**63-scripted", "rounds-2**63-regret", "replicas-2**63",
         "atom-value-10**400", "values-4300-digits", "initial-bids-4300-digits"],
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


@pytest.mark.parametrize(
    "name, edit, where",
    [
        ("appendix-c-cycle", _learner_under_best_response, "appendix-c-cycle.agents: agent 1 "),
        ("appendix-c-cycle", _override_to_learner, "appendix-c-cycle.agents: agent 2 "),
        ("section-3-3", _initial_with_random_start, "section-3-3.dynamics.empty_start: "),
        ("appendix-c-cycle", _item_as_index,
         "{dir}/appendix_c.instance.json.agents[0].atoms[0].items: unknown item 0"),
        ("random-ca", _pass_fraction_out_of_range,
         "random-ca.acceptance.checks.replica_pass_fraction: "),
        ("random-sca", _g_fraction_out_of_range, "random-sca.acceptance.checks.min_g_fraction: "),
        ("random-ca", _random_start_with_zero_lottery, "random-ca.dynamics.empty_start: "),
        ("best-response-theorem-10", _epsilon_out_of_range,
         "best-response-theorem-10.acceptance.epsilon: "),
        ("appendix-c-cycle", _one_item({"kind": "grand-bundle", "gamma": "1/10"}),
         "appendix-c-cycle.mechanism: grand-bundle mechanism needs at least 2 items"),
        ("appendix-c-cycle", _one_item({"kind": "two-tier"}),
         "appendix-c-cycle.mechanism: two-tier rule needs at least 2 items"),
        ("appendix-c-cycle", _duplicate_atom,
         "{dir}/appendix_c.instance.json.agents[0]: duplicate atom bundle 0x3"),
        ("byzantine-mix", _override_id("04"),
         "byzantine-mix.agents.overrides: unknown agent id '04'"),
        ("appendix-c-cycle", _dynamics_count("rounds", 2**63),
         "appendix-c-cycle.dynamics.rounds: "),
        ("regret-theorem-3", _dynamics_count("rounds", 2**63),
         "regret-theorem-3.dynamics.rounds: "),
        ("appendix-c-cycle", _dynamics_count("replicas", 2**63),
         "appendix-c-cycle.dynamics.replicas: "),
        ("regret-theorem-3", _atom_value(10**400),
         "{dir}/appendix_c.instance.json.agents[0]: atom value of bundle 0x3 must be in "
         "[0, 9007199254740992]"),
        ("appendix-c-cycle", _disjoint_values(10**4299),
         "{dir}/appendix_c.instance.json.agents[0]: atom value of bundle 0x1 must be in "),
        ("appendix-c-cycle", _initial_bids(10**4299),
         "appendix-c-cycle.dynamics.initial[0].bid: must be an integer in [0, 9007199254740992]"),
    ],
    ids=["best-response-mw", "best-response-fpl", "initial-random-start", "item-index",
         "pass-fraction-range", "g-fraction-range", "zero-lottery-random-start",
         "epsilon-range", "one-item-grand-bundle", "one-item-two-tier", "duplicate-atom",
         "overrides-leading-zero", "rounds-2**63-scripted", "rounds-2**63-regret",
         "replicas-2**63", "atom-value-10**400", "values-4300-digits",
         "initial-bids-4300-digits"],
)
def test_rejected_experiment_names_the_key(tmp_path, capsys, name, edit, where):
    path = _copy_scenario(tmp_path, name, edit)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("INVALID: " + where.format(dir=tmp_path))


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize(
    "document, key", [("experiment", "rounds"), ("instance", "m")], ids=["experiment", "instance"]
)
def test_duplicate_json_key_is_invalid(tmp_path, capsys, monkeypatch, command, document, key):
    """A key repeated in one object is rejected, not read last-wins."""
    path = _copy_scenario(tmp_path, "byzantine-mix", lambda experiment, instance: None)
    target = path if document == "experiment" else tmp_path / "appendix_c.instance.json"
    field = f'"{key}": '
    target.write_text(target.read_text().replace(field, f"{field}1, {field}", 1))
    argv = [command, str(path)]
    if command == "run":
        argv += ["--replicas", "1", "--out-dir", str(tmp_path / "out")]
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {target}: duplicate key {key!r}") and "Traceback" not in err


def test_agentless_regret_run_with_lottery(tmp_path):
    """No agent to hand the lottery to: every round is empty, and no coin is drawn."""
    instance = write_instance(tmp_path, m=3, items=["a", "b", "c"], agents=[])
    path = write_experiment(
        tmp_path, instance,
        mechanism={"kind": "filtered-greedy", "s": 2, "appendix_b_lottery": "1/2"},
        dynamics={"kind": "regret", "rounds": 6, "replicas": 1},
        agents={"default": "mw"},
        acceptance={"epsilon": "1/10", "checks": {}},
    )
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "trace-replica0.csv").read_text().splitlines()
    assert rows[1:] == [f"{t},ALL,-,0,0" for t in range(1, 7)]


def test_scenarios_command_lists_every_scenario(capsys):
    assert main(["scenarios"]) == 0
    assert capsys.readouterr().out.splitlines() == list_scenarios()


def test_unknown_scenario_name_is_invalid(tmp_path, capsys):
    assert main(["run", "no-such-scenario", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(
        "INVALID: no experiment file or scenario named 'no-such-scenario'"
    )


@pytest.mark.parametrize("kind", ["malformed", "directory"])
def test_experiment_named_without_its_suffix_is_read_like_a_path(tmp_path, capsys, kind):
    """`run <dir>/bad` reads `<dir>/bad.experiment.json` through the same
    checks as `run <dir>/bad.experiment.json`."""
    target = tmp_path / "bad.experiment.json"
    if kind == "directory":
        target.mkdir()
    else:
        target.write_text("{")
    assert main(["run", str(tmp_path / "bad"), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {target}:") and "Traceback" not in err


def _copy_scenario_as(directory: Path, name: str) -> Path:
    """Copy appendix-c-cycle and its instance into `directory` as `<name>.experiment.json`."""
    directory.mkdir(exist_ok=True)
    path = _copy_scenario(directory, "appendix-c-cycle", lambda experiment, instance: None)
    return path.rename(directory / f"{name}.experiment.json")


def test_relative_source_without_its_suffix_is_read_from_the_working_directory(
    tmp_path, monkeypatch
):
    _copy_scenario_as(tmp_path / "d", "x")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "d/x", "--out-dir", "out"]) == 0
    assert json.loads((tmp_path / "out" / "summary.json").read_text())["experiment"] == "x"


@pytest.mark.parametrize("source", ["mine", "mine.experiment.json", "./mine"])
def test_default_out_dir_is_named_after_the_experiment(tmp_path, monkeypatch, source):
    """However the source is typed, one experiment lands in one directory."""
    _copy_scenario_as(tmp_path, "mine")
    monkeypatch.chdir(tmp_path)
    assert main(["run", source]) == 0
    assert [p.name for p in (tmp_path / "runs").iterdir()] == ["mine"]
    assert json.loads((tmp_path / "runs" / "mine" / "summary.json").read_text())[
        "experiment"] == "mine"


@pytest.mark.parametrize("suffix", ["", ".experiment.json"])
def test_source_reads_its_instance_beside_it(tmp_path, capsys, suffix):
    """A local instance named like a built-in one is the one read, and a
    malformed one is INVALID, whether or not the source has its suffix."""
    path = _copy_scenario_as(tmp_path, "x")
    instance = tmp_path / json.loads(path.read_text())["instance"]
    instance.write_text("{")
    assert main(["run", f"{tmp_path / 'x'}{suffix}", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"INVALID: {instance}:")


def test_dotted_source_never_reaches_the_scenario_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source = "../scenarios/appendix-c-cycle"
    assert main(["run", source, "--out-dir", "out"]) == 2
    assert capsys.readouterr().err.startswith(
        f"INVALID: no experiment file or scenario named {source!r}"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "source, local",
    [
        pytest.param("appendix-c-cycle", None, id="appendix-c-cycle"),
        pytest.param("mine", None, id="mine"),
        pytest.param("mine.experiment.json", None, id="experiment-file"),
        pytest.param("appendix-c-cycle", "instance", id="scenario-beside-a-local-instance"),
        pytest.param("myexp", "experiment", id="suffix-less-file"),
    ],
)
def test_validate_resolves_a_source_as_run_does(tmp_path, monkeypatch, capsys, source, local):
    """A scenario name, an experiment file, a path without its suffix beside
    `<path>.experiment.json` and an existing file without a suffix validate
    as they run: both commands read the same files, and `validate` reads
    each once.  A scenario name comes before a local file of that name,
    which `./<name>` reads."""
    experiment = _copy_scenario_as(tmp_path, "mine")
    if local == "instance":
        write_instance(tmp_path).rename(tmp_path / source)
    elif local == "experiment":
        experiment.rename(tmp_path / source)
    monkeypatch.chdir(tmp_path)
    reads = []
    read_json = cli._read_json

    def counted_read(path):
        reads.append(Path(path).resolve())
        return read_json(path)

    monkeypatch.setattr(cli, "_read_json", counted_read)
    assert main(["validate", source]) == 0
    assert capsys.readouterr().out == f"OK: experiment {source}\n"
    validated = list(reads)
    assert len(validated) == len(set(validated)) == 2  # the experiment and its instance
    reads.clear()
    assert main(["run", source, "--out-dir", "out"]) == 0
    assert reads == validated
    if local == "instance":
        capsys.readouterr()
        assert main(["validate", f"./{source}"]) == 0
        assert capsys.readouterr().out == f"OK: instance ./{source} (4 agents, 4 items)\n"


def test_broken_separation_names_its_first_round_and_agent(tmp_path, capsys):
    """A failing `require_separated` names the first unseparated round and
    agent, with the agent's set, bid and the pressure on it; the trace bears
    the witness out."""
    def separated(experiment, instance):
        experiment["acceptance"]["checks"]["require_separated"] = True
        experiment["dynamics"]["replicas"] = 1

    path = _copy_scenario(tmp_path, "random-ca", separated)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    witness = "round 3: agent 3 bids 34 on set 511 under pressure 54"
    assert f"replica 0: FAIL require_separated: {witness}\n" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert {"name": "require_separated", "pass": False, "detail": witness} in (
        summary["replicas"][0]["checks"])

    types = load_experiment(path).instance.types
    rows = (tmp_path / "out" / "trace-replica0.csv").read_text().splitlines()[1:4]
    n = len(types)
    profiles = [[(int(c[2 + i]), int(c[2 + n + i])) for i in range(n)]
                for c in (row.split(",") for row in rows)]

    def pressures(profile, i):
        set_mask, _ = profile[i]
        value = types[i].value_of(set_mask)
        return sum(b for j, (s, b) in enumerate(profile) if j != i and s & set_mask and b < value)

    for profile in profiles[:2]:
        assert all(pressures(profile, i) <= bid for i, (_, bid) in enumerate(profile))
    third = profiles[2]
    assert [i for i, (_, bid) in enumerate(third) if pressures(third, i) > bid][0] == 2
    assert third[2] == (511, 34) and pressures(third, 2) == 54


def test_two_tier_experiment_validates_and_runs(tmp_path):
    def two_tier(experiment, instance):
        experiment["mechanism"] = {"kind": "two-tier"}  # two-tier reads no `s`

    path = _copy_scenario(tmp_path, "appendix-c-cycle", two_tier)
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("key, maximum", [("rounds", dynamics.MAX_ROUNDS),
                                          ("replicas", cli.MAX_REPLICAS)])
def test_counts_that_size_a_run_validate_up_to_their_maximum(tmp_path, capsys, key, maximum):
    for value, status in ((maximum, 0), (maximum + 1, 2)):
        path = _copy_scenario(tmp_path, "appendix-c-cycle", _dynamics_count(key, value))
        assert main(["validate", str(path)]) == status
        err = capsys.readouterr().err
        assert err.startswith(f"INVALID: appendix-c-cycle.dynamics.{key}: ") == (status == 2)


def test_replicas_of_a_run_play_at_most_the_round_maximum_in_all(tmp_path, capsys, monkeypatch):
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    rounds = dynamics.MAX_ROUNDS // 4
    for replicas, status in ((4, 0), (5, 2)):
        path = _copy_scenario(tmp_path, "appendix-c-cycle",
                              lambda experiment, instance: experiment["dynamics"].update(
                                  rounds=rounds, replicas=replicas))
        assert main(["validate", str(path)]) == status
        err = capsys.readouterr().err
        assert err.startswith("INVALID: appendix-c-cycle.dynamics.replicas: ") == (status == 2)
    path = _copy_scenario(tmp_path, "appendix-c-cycle", _dynamics_count("rounds", rounds))
    assert main(["run", str(path), "--replicas", "5", "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: --replicas: ") and "Traceback" not in err


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
        (["ca-theorem-11", "--gamma", "1e-100000"], "--gamma"),
        (["best-response-theorem-10", "--epsilon", "1"], "--epsilon"),
        (["appendix-c-cycle", "--replicas", str(2**63), "--workers", "2"], "--replicas"),
        (["appendix-c-cycle", "--replicas", str(cli.MAX_REPLICAS + 1)], "--replicas"),
        (["appendix-c-cycle", "--workers", str(cli.MAX_WORKERS + 1)], "--workers"),
    ],
)
def test_run_flags_obey_the_rules_of_their_keys(tmp_path, capsys, monkeypatch, argv, where):
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    assert main(["run", *argv, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {where}: ") and "Traceback" not in err


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_out_dir_on_a_file_is_invalid(tmp_path, capsys, monkeypatch, under):
    taken = tmp_path / "taken"
    taken.write_text("")
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    out = taken / "out" if under else taken
    assert main(["run", "appendix-c-cycle", "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: --out-dir: ") and "Traceback" not in err


@pytest.mark.parametrize("name", ["trace-replica0.csv", "summary.json"])
def test_output_write_failure_is_invalid(tmp_path, capsys, name):
    (tmp_path / name).mkdir()
    assert main(["run", "appendix-c-cycle", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("INVALID: --out-dir: ") and name in err and "Traceback" not in err


def test_worker_pool_is_capped_at_the_replica_count(tmp_path, monkeypatch):
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    base = ["run", "byzantine-mix", "--replicas", "2"]
    main([*base, "--workers", str(cli.MAX_WORKERS), "--out-dir", str(tmp_path / "pool")])
    assert pools == [2]
    main([*base, "--workers", "1", "--out-dir", str(tmp_path / "one")])
    assert pools == [2]
    for name in ("summary.json", "trace-replica0.csv", "trace-replica1.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_each_replica_writes_its_trace_before_the_next_starts(tmp_path, monkeypatch):
    """`run` holds one replica's trace at a time: replica k's CSV is on disk
    when replica k + 1 starts."""
    engine, written = cli.run_best_response_dynamics, []

    def recording_engine(config):
        written.append(sorted(p.name for p in tmp_path.glob("trace-replica*.csv")))
        return engine(config)

    monkeypatch.setattr(cli, "run_best_response_dynamics", recording_engine)
    assert main(["run", "appendix-c-cycle", "--replicas", "3", "--out-dir", str(tmp_path)]) == 0
    assert written == [[f"trace-replica{r}.csv" for r in range(k)] for k in range(3)]


@pytest.mark.parametrize("command", ["validate", "run", "oracle"])
def test_oracle_past_its_budget_is_invalid(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(algorithms, "ORACLE_MAX_MEMO", 4)
    for engine in ("run_best_response_dynamics", "run_regret_dynamics"):
        monkeypatch.setattr(cli, engine, _no_rounds)
    where = "random-ca.instance"
    argv = [command, "random-ca"]
    if command == "run":
        argv += ["--out-dir", str(tmp_path)]
    if command == "oracle":
        where = str(cli.SCENARIO_DIR / "random_ca.instance.json")
        argv[1] = where
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {where}: oracle gives up past 4 subproblems")
    assert "Traceback" not in err


def test_byzantine_restricted_solve_is_invalid_past_its_budget(capsys, monkeypatch):
    def over_budget(bids, n_agents, cap=None):
        raise SizeError("oracle gives up")

    monkeypatch.setattr(cli, "optimal_allocation", over_budget)
    assert main(["validate", "byzantine-mix"]) == 2
    assert capsys.readouterr().err.startswith("INVALID: byzantine-mix.instance: oracle gives up")


# Files that `json.loads` or the read before it rejects with an error other
# than `JSONDecodeError`.
_UNDECODABLE = {
    "non-utf8": b'{"m": "\xff"}',
    "long-integer": b'{"m": ' + b"1" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("command", ["validate", "oracle", "validate-experiment", "run"])
@pytest.mark.parametrize("kind", sorted(_UNDECODABLE))
def test_undecodable_file_is_invalid(tmp_path, capsys, command, kind):
    experiment = _copy_scenario(tmp_path, "appendix-c-cycle", lambda experiment, instance: None)
    instance = tmp_path / json.loads(experiment.read_text())["instance"]
    instance.write_bytes(_UNDECODABLE[kind])
    argv = {
        "validate": ["validate", str(instance)],
        "oracle": ["oracle", str(instance)],
        "validate-experiment": ["validate", str(experiment)],
        "run": ["run", str(experiment), "--out-dir", str(tmp_path / "out")],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"INVALID: {instance}: ") and "Traceback" not in err


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

    def with_zero_lottery(experiment, instance):
        random_start(experiment, instance)
        experiment["mechanism"]["appendix_b_lottery"] = "0"

    assert main(["validate", str(_copy_scenario(tmp_path, "random-sca", with_zero_lottery))]) == 2
    assert capsys.readouterr().err.startswith("INVALID: random-sca.dynamics.empty_start: ")


@pytest.mark.parametrize(
    "arg, where",
    [("keep_on_tie", "appendix-c-cycle.dynamics.keep_on_tie"),
     ("gamma", "appendix-c-cycle.mechanism.gamma"),
     (None, "appendix-c-cycle.mechanism")],
    ids=["dynamics-key", "mechanism-key", "no-key"],
)
def test_validate_reports_a_rule_of_the_run_configuration_at_its_key(
    tmp_path, capsys, monkeypatch, arg, where
):
    """`validate` builds the run configuration as `run` does, so a rule that
    lives only in the library is still reported at the key it names."""
    def refuse(config):
        raise ValidationError("refused by the library", arg=arg)

    monkeypatch.setattr(dynamics.RunConfig, "__post_init__", refuse)
    path = _copy_scenario(tmp_path, "appendix-c-cycle", lambda experiment, instance: None)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"INVALID: {where}: refused by the library\n"


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


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out == "547/550\n"


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


def test_mutated_scenario_files_run_as_they_validate(tmp_path, capsys):
    """`run` on damaged copies of every built-in scenario, with at most 40
    rounds, exits 0, 1 or 2 and never raises; `INVALID: ` appears exactly
    on exit 2, and `validate` exits 0 exactly when `run` exits 0 or 1."""
    rng = random.Random(6)
    problems, seen = [], set()
    for name in list_scenarios():
        experiment, instance = _scenario_documents(name)
        experiment["dynamics"]["rounds"] = min(experiment["dynamics"]["rounds"], 40)
        documents = {"experiment": experiment, "instance": instance}
        positions = {kind: list(_positions(doc)) for kind, doc in documents.items()}
        paths = {"experiment": tmp_path / f"{name}.experiment.json",
                 "instance": tmp_path / experiment["instance"]}
        for _ in range(28):
            for kind, doc in documents.items():
                mutated, change = _mutated(doc, positions[kind], rng)
                for other, path in paths.items():
                    path.write_text(json.dumps(mutated if other == kind else documents[other]))
                codes = {}
                for command in (["validate"], ["run", "--out-dir", str(tmp_path / "out")]):
                    try:
                        code = main(command[:1] + [str(paths["experiment"])] + command[1:])
                    except Exception as exc:  # noqa: BLE001 - any escape is the failure
                        code = f"{type(exc).__name__}: {exc}"
                    codes[command[0]] = code, capsys.readouterr().err
                (run, err), (validate, _) = codes["run"], codes["validate"]
                seen.add(run)
                if (run not in (0, 1, 2) or (run == 2) != ("INVALID: " in err)
                        or (validate == 0) != (run in (0, 1))):
                    problems.append(f"{name} {kind} {change}: validate exit {validate}, "
                                    f"run exit {run}, stderr {err!r}")
    assert not problems, "\n".join(problems[:20])
    assert seen == {0, 1, 2}
