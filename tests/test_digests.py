"""Golden digests of every built-in scenario's run output.

Each scenario runs with two replicas through the CLI; the SHA-256 of every
trace CSV and of `summary.json` must match the values recorded in
tests/digests.py.  A change that is meant to keep behaviour identical (a
refactor, a cache, a faster path) must leave this test green; a change
that alters traces on purpose updates the table and says why.  The runs
build no `RoundRecord`: `auctionlab run` reads a trace's states, and a
trace builds its records only for a caller that reads them.
"""
import pytest

from auctionlab import dynamics
from auctionlab.cli import list_scenarios

from digests import DIGESTS, VARIANT_DIGESTS, VARIANTS, run_digests, variant_source


@pytest.fixture
def no_round_records(monkeypatch):
    def refuse(*_):
        raise AssertionError("the run built a RoundRecord")

    monkeypatch.setattr(dynamics, "RoundRecord", refuse)


def test_every_scenario_is_pinned():
    assert sorted({key.split("/")[0] for key in DIGESTS}) == list_scenarios()


def pinned(table, name):
    return {key: value for key, value in table.items() if key.startswith(f"{name}/")}


@pytest.mark.parametrize("name", sorted({key.split("/")[0] for key in DIGESTS}))
def test_scenario_output_digests(name, tmp_path, no_round_records):
    assert run_digests(name, [name], tmp_path) == pinned(DIGESTS, name)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_variant_output_digests(name, tmp_path, no_round_records):
    argv = [variant_source(name, tmp_path), *VARIANTS[name][2]]
    assert run_digests(name, argv, tmp_path / "out") == pinned(VARIANT_DIGESTS, name)
