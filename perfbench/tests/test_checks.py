"""Tests for the benchmark's independent checkers.

Each checker passes a real program output and fails a corrupted copy.

    python3 -m pytest perfbench/tests      # or: python3 -m unittest discover perfbench/tests
"""
import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from auctionlab import cli  # noqa: E402

SCENARIOS = ROOT / "src" / "auctionlab" / "scenarios"


def run_scenario(name: str, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", name, "--out-dir", str(out)]) == 0


def scenario_types(name: str):
    experiment = json.loads((SCENARIOS / f"{name}.experiment.json").read_text())
    instance = json.loads((SCENARIOS / experiment["instance"]).read_text())
    return checks.parse_instance(instance)


class TraceRowChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        out = Path(cls.tmp.name)
        run_scenario("random-sca", out)
        _, cls.cap, cls.types = scenario_types("random-sca")
        text = (out / "trace-replica0.csv").read_text()
        cls.rows = checks.parse_trace(text, len(cls.types))
        cls.summary = json.loads((out / "summary.json").read_text())["replicas"][0]

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def winning_row(self, winners=1):
        for row in self.rows:
            if sum(1 for mask in row["won"] if mask) >= winners:
                return {k: list(v) if isinstance(v, list) else v for k, v in row.items()}
        self.fail(f"no row with {winners} winners")

    def test_real_rows_pass(self):
        for row in self.rows:
            self.assertEqual(checks.check_row(row, self.types, self.cap), [])

    def test_overlapping_bundles_fail(self):
        row = self.winning_row(2)
        first, second = [i for i, mask in enumerate(row["won"]) if mask][:2]
        row["won"][second] |= row["won"][first]
        self.assertTrue(any("overlaps" in p for p in checks.check_row(row, self.types, self.cap)))

    def test_wrong_true_sw_fails(self):
        row = self.winning_row()
        row["true_sw"] += 1
        self.assertTrue(any("true_sw" in p for p in checks.check_row(row, self.types, self.cap)))

    def test_winner_paying_above_bid_fails(self):
        row = self.winning_row()
        i = next(i for i, mask in enumerate(row["won"]) if mask)
        row["pay"][i] = row["bids"][i] + 1
        self.assertTrue(any("above bid" in p for p in checks.check_row(row, self.types, self.cap)))

    def test_paying_loser_fails(self):
        row = self.winning_row()
        i = next(i for i, mask in enumerate(row["won"]) if not mask)
        row["pay"][i] = 1
        self.assertTrue(any("loser" in p for p in checks.check_row(row, self.types, self.cap)))

    def test_summary_matches_and_wrong_optimum_fails(self):
        optimum = checks.brute_force_optimum(self.types, self.cap)
        self.assertEqual(checks.check_replica_summary(self.summary, self.rows, optimum), [])
        self.assertNotEqual(checks.check_replica_summary(self.summary, self.rows, optimum - 1), [])


class OptimumChecks(unittest.TestCase):
    types = [((0b0011, 4), (0b1000, 6)), ((0b0001, 2), (0b0110, 5)), ((0b0100, 4),), ((0b1000, 5),)]

    def test_optimum_below_feasible_allocation_fails(self):
        allocation = (0b1000, 0b0110, 0, 0)  # worth 11
        self.assertEqual(checks.check_optimum_against(11, self.types, allocation, 2), [])
        self.assertNotEqual(checks.check_optimum_against(10, self.types, allocation, 2), [])

    def test_brute_force_small_instance(self):
        # {a, b} + {c} + {d} (4 + 4 + 5) beats {d} + {b, c} (6 + 5)
        self.assertEqual(checks.brute_force_optimum(self.types, 2), 13)
        # singletons only: {d} + {a} + {c}
        self.assertEqual(checks.brute_force_optimum(self.types, 1), 6 + 2 + 4)
        # without agent 4: {d} + {a} + {c} again
        self.assertEqual(checks.brute_force_optimum(self.types, 2, exclude={3}), 6 + 2 + 4)

    def test_brute_force_matches_cli_oracle_on_every_instance(self):
        paths = sorted(SCENARIOS.glob("*.instance.json"))
        self.assertTrue(paths)
        for path in paths:
            _, cap, types = checks.parse_instance(json.loads(path.read_text()))
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                self.assertEqual(cli.main(["oracle", str(path)]), 0)
            first = stdout.getvalue().splitlines()[0]
            self.assertEqual(first, f"optimal welfare: {checks.brute_force_optimum(types, cap)}",
                             path.name)


class ProfileChecks(unittest.TestCase):
    types = [((0b0011, 4),), ((0b0010, 3),), ((0b1111, 9),)]

    def test_separation(self):
        self.assertTrue(checks.separated([(0b0011, 4), (0b0010, 3), (0, 0)], self.types))
        # agent 1 values {a, b} at 4, above the intersecting bids 3 and 2,
        # whose sum 5 exceeds its bid of 4
        types = [((0b0011, 4),), ((0b0010, 3),), ((0b0001, 2),)]
        self.assertFalse(checks.separated([(0b0011, 4), (0b0010, 3), (0b0001, 2)], types))

    def test_separation_by_scale_ignores_cross_scale_pressure(self):
        profile = [(0b0011, 4), (0b0010, 3), (0b1111, 5)]
        self.assertFalse(checks.separated(profile, self.types))
        self.assertTrue(checks.separated_by_scale(profile, self.types, 0b1111))

    def test_truthful(self):
        self.assertTrue(checks.truthful((0b0011, 4), self.types[0]))
        self.assertTrue(checks.truthful((0, 0), self.types[0]))
        self.assertFalse(checks.truthful((0b0011, 3), self.types[0]))


if __name__ == "__main__":
    unittest.main()
