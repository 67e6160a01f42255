"""auctionlab benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  Each workload is a single-threaded closed loop:
one caller, the next call into the program after the last one returns.

Untraced (`--trace 0`), the run sets up `SETUP_REPEATS` times (fresh
import of the package plus batch 0's inputs) and reports the median as
`setup_s`, then runs batches until `--seconds` have passed and reports the
end-to-end metrics.  Traced (`--trace 1`), it runs the workload's fixed
number of batches twice, untraced and then with the span tracer installed,
so counts repeat exactly for a seed; it reports the per-layer metrics,
`trace.overhead_s` (traced minus untraced host time inside the program's
calls) and writes the spans
to `perfbench/out/`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("core", "algorithms", "mechanisms", "agents", "dynamics", "metrics", "generate", "cli")
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def import_program() -> SimpleNamespace:
    """Fresh import of the package from this checkout's `src/`."""
    for name in [m for m in sys.modules if m == "auctionlab" or m.startswith("auctionlab.")]:
        del sys.modules[name]
    modules = {name: importlib.import_module(f"auctionlab.{name}") for name in MODULES}
    location = Path(modules["core"].__file__).resolve()
    if SRC.resolve() not in location.parents:
        raise ImportError(f"auctionlab was imported from {location}, not from {SRC}")
    return SimpleNamespace(**modules)


def setup(workload, seed):
    """Calibrated seconds of a fresh import plus batch 0's inputs."""
    with workloads.Calibrated() as clock:
        al = import_program()
        batch = workload.prepare(al, seed, 0)
    return clock.seconds, al, batch


class Tally:
    """Operations, timings and problems accumulated over batches."""

    def __init__(self, tracer=None):
        self.tracer = tracer  # paused while the benchmark checks outputs
        self.batch_seconds: list[float] = []  # calibrated
        self.raw_seconds = 0.0
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, workload, al, batch) -> None:
        ops = workload.run(al, batch)
        self.attempted += len(ops)
        self.failed += sum(op.failed for op in ops)
        self.rounds += sum(op.rounds for op in ops if not op.failed)
        self.batch_seconds.append(sum(op.seconds for op in ops))
        self.raw_seconds += sum(op.raw for op in ops)
        if self.tracer is not None:
            self.tracer.paused = True
        try:
            self.problems += workload.check(al, batch, ops)
        finally:
            if self.tracer is not None:
                self.tracer.paused = False

    @property
    def seconds(self) -> float:
        return sum(self.batch_seconds)


def untraced(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, al, batch = setup(workload, seed)
        setups.append(elapsed)
    tally = Tally()
    started = perf_counter()
    k = 0
    while True:
        tally.add(workload, al, batch)
        k += 1
        if k >= workload.min_batches and perf_counter() - started >= seconds:
            break
        batch = workload.prepare(al, seed, k)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    timed = tally.seconds
    print(f"program calls: {tally.raw_seconds:.3f} host seconds, {timed:.3f} calibrated, "
          f"{len(tally.batch_seconds)} batches")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(tally.batch_seconds), "s"),
        "rounds_per_s": (tally.rounds / timed, "rounds/s"),
        "queries_per_s": ((tally.attempted - tally.failed) / timed, "queries/s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
    }
    return tally, metrics


def traced(workload, seed):
    al = import_program()
    workloads.Calibrated.interval = 0

    def fixed_run(tracer=None):
        """The first `trace_batches` batches."""
        tally = Tally(tracer)
        for k in range(workload.trace_batches):
            tally.add(workload, al, workload.prepare(al, seed, k))
        return tally

    plain = fixed_run()
    tracer = tracing.Tracer()
    tracing.install(tracer, al)
    try:
        traced_tally = fixed_run(tracer)
    finally:
        tracer.uninstall()
    print(f"program calls: {plain.raw_seconds:.3f} host seconds untraced, "
          f"{traced_tally.raw_seconds:.3f} traced")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_s"] = (traced_tally.raw_seconds - plain.raw_seconds, "s")
    tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.jsonl",
                {"workload": workload.name, "seed": seed, "batches": workload.trace_batches})
    plain.problems += traced_tally.problems
    plain.attempted += traced_tally.attempted
    plain.failed += traced_tally.failed
    return plain, metrics


def measure(name, seed, seconds, trace):
    workload = workloads.make(name, ROOT, OUT)
    tally, metrics = traced(workload, seed) if trace else untraced(workload, seed, seconds)
    tally.problems += workload.final_problems()
    for line in workload.extra_lines():
        print(line)
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload, each in its own process; metrics keyed workload/name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {done.returncode}")
        for line in lines[:-1]:
            print(f"{name}: {line}")
        result = json.loads(lines[-1])
        for key in ("attempted", "failed"):
            merged[key] += result[key]
        merged["correct"] &= result["correct"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
            print(f"{name:20s} {metric:40s} {value['value']:>14.6g} {value['unit']}")
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "auctionlab" / "__init__.py").is_file():
        print(f"no auctionlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
