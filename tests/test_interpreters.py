"""The digest rows of tests/digests.py hold under every other interpreter
of Python 3.10 or later found on this machine, not just the one running
the tests.  Exactness is the product, and interpreters can differ in what
a run reads: Python 3.12's `sum()` rounds float totals differently, for
one.  The runtime floor is 3.10, which also adds `Counter.total()`; the
regret check of `section-3-3` divides by it, so its summary row runs it.

Candidates are `$PYENV_ROOT/versions/*/bin/python` (`~/.pyenv` without
the variable) and `python3.10` to `python3.19` on `PATH`.  Each is probed
with `-c`, since a pyenv shim on `PATH` fails unless its version is
selected.  The test runs one interpreter per minor version other than the
running one's, all at once, and skips when it finds none.
"""
import glob
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from auctionlab.cli import load_experiment

TESTS = Path(__file__).resolve().parent
PROBE = "import sys; sys.stdout.write('%d.%d' % sys.version_info[:2])"


def candidates() -> list[str]:
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found = sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python")))
    found += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    return list(dict.fromkeys(found))


def other_interpreters() -> dict[tuple[int, int], str]:
    """The first working candidate of each minor version from 3.10 on,
    the running interpreter's version left out."""
    probes = []
    for path in candidates():
        try:
            probe = subprocess.Popen([path, "-c", PROBE], stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL)
        except OSError:
            continue
        probes.append((path, probe))
    found = {}
    for path, probe in probes:
        out, _ = probe.communicate(timeout=60)
        if probe.returncode == 0:
            version = tuple(map(int, out.split(b".")))
            if version >= (3, 10) and version != sys.version_info[:2]:
                found.setdefault(version, path)
    return found


def test_digests_hold_under_other_interpreters():
    assert "max_regret_per_round" in load_experiment("section-3-3").checks
    found = other_interpreters()
    if not found:
        pytest.skip("no other interpreter of Python 3.10 or later found")
    env = {**os.environ, "PYTHONPATH": str(TESTS.parent / "src")}
    runs = {
        version: subprocess.Popen([path, str(TESTS / "digests.py")], env=env, text=True,
                                  stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        for version, path in found.items()
    }
    for (major, minor), run in runs.items():
        out, _ = run.communicate(timeout=600)
        assert run.returncode == 0, f"Python {major}.{minor} ({found[major, minor]}):\n{out}"
