"""Golden digests of every built-in scenario's run output, the variant
runs that reach paths no scenario reaches, and the runs that reproduce
them.  Standard library only, so that any interpreter can check them:

    PYTHONPATH=src python tests/digests.py

runs every row, prints each one whose digest differs, and exits 1 if any
does.  tests/test_digests.py checks the rows one by one under pytest, and
tests/test_interpreters.py runs this file under the other interpreters it
finds.
"""
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from auctionlab.cli import SCENARIO_DIR, main

DIGESTS = {
    "appendix-c-cycle/summary.json": "6d200576367e3ab40205024a60052f58280ae64afc58fae349884520833b697a",
    "appendix-c-cycle/trace-replica0.csv": "46cef0f17556b04118504953245db5a0d9c60d72e061d1c2e790bd3df972b2d2",
    "appendix-c-cycle/trace-replica1.csv": "46cef0f17556b04118504953245db5a0d9c60d72e061d1c2e790bd3df972b2d2",
    "best-response-theorem-10/summary.json": "a085f01d94a3906047afd62fec47061af5c9f94c5fe67ec830118705361a6e7f",
    "best-response-theorem-10/trace-replica0.csv": "d7b3927ed7b463ef8fc4e68de32860ddd02e427e228a289f5c25cb642be6f923",
    "best-response-theorem-10/trace-replica1.csv": "10a143015f05ad388999741930ef50999a44c21fe99786a68fa78593cb57e94c",
    "byzantine-mix/summary.json": "b47ab8887eab983f0375fd8743fc949701d12a3af8dffc173d77297a845bbe7d",
    "byzantine-mix/trace-replica0.csv": "8f7298e2fb8505fc81e041060efdb4e31a0fc3bc1b404050bedf1dc20a458a44",
    "byzantine-mix/trace-replica1.csv": "e8caaa92ef342d7df9af3d0d55f3d70ae3baea9a37117f6ecb1e9378e7a35993",
    "ca-theorem-11/summary.json": "e21cc54e90c269dc3f4dc9f42ee1963353f7726688a8a25a463466ea518a8710",
    "ca-theorem-11/trace-replica0.csv": "3736f42b39c07b5d61dc818bde19e5b5876c3b5b7708a84967ee83d82a67ddb9",
    "ca-theorem-11/trace-replica1.csv": "d39800e731cabeff41ccad1aefa9063f72ef2b372d88b120c33fdf288d65a8c0",
    "random-ca/summary.json": "8eb011cd2d49bfb66a4745fdf8d078e1a588cd7d320a8316f3e4c04fe8f7a750",
    "random-ca/trace-replica0.csv": "afde19d4abc4edda276379715e332c255fe7193fb76dd11fa45b23a2827fe65b",
    "random-ca/trace-replica1.csv": "ad101e27fe59e32defc5e7ca098c98bc9c7314f8605cf9171b9aaf47f41bb072",
    "random-sca/summary.json": "464813768a12fe6d7aba32d811346d8e70e0ce78eb32d0be7bd824c8dc4a38e6",
    "random-sca/trace-replica0.csv": "1b9a0b1701a17c3150a73f8e561b8a794d5cebe5147694277657c6ada31520fd",
    "random-sca/trace-replica1.csv": "bb8f707b55c14dd1879bd4fa4eb20c85aed20808d8704765805dca48020d490c",
    "regret-theorem-3/summary.json": "783b3dd11f7dbc4bf07dff8a6e9ef37ad04d988e8f574f3399639c58f978aed4",
    "regret-theorem-3/trace-replica0.csv": "78d7c658799c60e18edd89040715e3f5fe547478b9fd21ec92d47b52f62b19e0",
    "regret-theorem-3/trace-replica1.csv": "92a50bb5d0d5445e7c071f9ddc731b0234b3396d1c6c9ee380676432b1e57830",
    "section-3-3/summary.json": "6efcf46cf78067306e18ed4fa78b4c8a8cf7d911fbbac818b9e5c13f0b67b992",
    "section-3-3/trace-replica0.csv": "5cdf7a4b4ca85f45adc5adee02c28763090466c122ebde44841558d9694b55a4",
    "section-3-3/trace-replica1.csv": "4bfb2a80d64dce97dc7ac8440b9ac7f1927169704e282f5143c14dd13e8cacef",
}

# Variants of built-in scenarios that reach paths no scenario reaches: the
# Appendix B lottery (from an empty and from a random start), FPL learners,
# and the two-tier rule with its closed-form prices.  No row reaches the
# generic threshold search any more: only a rule without `thresholds` does,
# and tests/test_mechanisms.py covers that.  Each is
# (scenario, edits of its experiment file, run flags); an edit maps
# "object.key" to a new value, or to None to drop the key.  An edited
# scenario runs from a copy named after the variant.
VARIANTS = {
    "random-sca-lottery": ("random-sca", {}, ["--appendix-b-lottery", "1/20"]),
    "random-ca-lottery": ("random-ca", {}, ["--appendix-b-lottery", "1/20"]),
    "random-sca-lottery-random-start": (
        "random-sca", {"dynamics.empty_start": False}, ["--appendix-b-lottery", "1/20"]
    ),
    "regret-theorem-3-fpl": ("regret-theorem-3", {"agents.default": "fpl"}, []),
    "appendix-c-cycle-two-tier": (
        "appendix-c-cycle", {"mechanism.kind": "two-tier", "mechanism.s": None}, []
    ),
}

VARIANT_DIGESTS = {
    "appendix-c-cycle-two-tier/summary.json": "89b25e51f0ccec2d34294549395c3c4f3155bcc37413ad5cd8bccbe60c5ef8aa",
    "appendix-c-cycle-two-tier/trace-replica0.csv": "46cef0f17556b04118504953245db5a0d9c60d72e061d1c2e790bd3df972b2d2",
    "appendix-c-cycle-two-tier/trace-replica1.csv": "46cef0f17556b04118504953245db5a0d9c60d72e061d1c2e790bd3df972b2d2",
    "random-ca-lottery/summary.json": "85ecc5eac2010cb963a693e84844d13dd47b13fb644fb73c10f63c03fb06a9c0",
    "random-ca-lottery/trace-replica0.csv": "abb333b0cf4d1722faf570cf8fd53c24f54e03157a9de4e5f24fdda0c30d5190",
    "random-ca-lottery/trace-replica1.csv": "d7b43515ee482094b6edc53fa9ac789c7b3fbde63158854865549e6d28dd38e6",
    "random-sca-lottery/summary.json": "de4beece98f4d251a8baa78baf93d12c13a9a83a67347ded702ca9624b61447d",
    "random-sca-lottery/trace-replica0.csv": "66a6a057f4c7d3102c2aaedae0a24b15980ac5ced6a3362e243131ff70e338be",
    "random-sca-lottery/trace-replica1.csv": "467b1a21531a96fcaf05a01de20c85d79cb1ab9c91d6c365cea4e6413ab66c47",
    "random-sca-lottery-random-start/summary.json": "4ad14448967e8928c7e3117acb3d09df21a37bb068eb1a8a96a4a27f711d994d",
    "random-sca-lottery-random-start/trace-replica0.csv": "11b7a8ab2fc9b6d848d84310ba4ea4cba83af745a1a3a527fc45bde9f895230d",
    "random-sca-lottery-random-start/trace-replica1.csv": "44ea5cdeb47fb82a46214b3ad32abe4a82e8b90ccfd2cd8451bb741e8df13fba",
    "regret-theorem-3-fpl/summary.json": "20e9a1f3900fcca1ae1af799bde0b957a881cf87a426eb2a5cfb5067a5b576af",
    "regret-theorem-3-fpl/trace-replica0.csv": "2c64dbb51d4af6682bb07bfe53106bcfb8c19777417c029a4437c9af80abc358",
    "regret-theorem-3-fpl/trace-replica1.csv": "a845b6a67096e48981194ac57ac3026b7c20fd5d53fe75f566ab2e11699ab157",
}


def run_digests(name, argv, out_dir):
    """SHA-256 of each file that `auctionlab run` writes for `argv` with two
    replicas, keyed `<name>/<file>`."""
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", *argv, "--replicas", "2", "--out-dir", str(out_dir)])
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def variant_source(name, tmp_path):
    scenario, edits, _ = VARIANTS[name]
    if not edits:
        return scenario
    data = json.loads((SCENARIO_DIR / f"{scenario}.experiment.json").read_text())
    for path, value in edits.items():
        obj, key = path.split(".")
        if value is None:
            del data[obj][key]
        else:
            data[obj][key] = value
    shutil.copy(SCENARIO_DIR / data["instance"], tmp_path / data["instance"])
    source = tmp_path / f"{name}.experiment.json"
    source.write_text(json.dumps(data))
    return str(source)


def mismatches() -> list[str]:
    """The rows whose digest differs from the tables, after running them all."""
    expected = {**DIGESTS, **VARIANT_DIGESTS}
    got = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name in sorted({key.split("/")[0] for key in DIGESTS}):
            got.update(run_digests(name, [name], work / name))
        for name in sorted(VARIANTS):
            source_dir = work / f"{name}-source"
            source_dir.mkdir()
            argv = [variant_source(name, source_dir), *VARIANTS[name][2]]
            got.update(run_digests(name, argv, work / name))
    return sorted(key for key in expected.keys() | got.keys() if got.get(key) != expected.get(key))


if __name__ == "__main__":
    differing = mismatches()
    for key in differing:
        print(f"digest differs: {key}")
    print(f"Python {sys.version.split()[0]}: {len(differing)} of "
          f"{len(DIGESTS) + len(VARIANT_DIGESTS)} rows differ")
    sys.exit(1 if differing else 0)
