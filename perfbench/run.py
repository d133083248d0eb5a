"""Benchmark of `optoutswarm run` on generated workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy. Every sample is a fresh interpreter
(`sample.py`) making the user's call, `cli.main(["run", SCENARIO, "--out",
OUT])`, on the scenario generated for the workload and seed.

- `--trace 0` runs untraced samples for about S seconds and reports the
  end-to-end metrics: medians of set-up time, wall time, CPU time and peak
  RSS, and simulated client-minutes per wall second.
- `--trace 1` alternates untraced and traced samples for about S seconds and
  reports the per-layer metrics of `spans.py`: medians of the timings, and
  counts that must repeat exactly across the traced samples.

Correctness: each invocation first runs the six bundled scenarios and checks
their NDJSON against pinned digests. Every sample's NDJSON must equal the
pinned digest at the default seed, and at other seeds the first sample of
the invocation; traced samples must match untraced ones. A run that exits
non-zero or writes other bytes counts as failed.

Standard output ends with a line of facts about the host and the samples,
then one JSON object: `correct`, `attempted`, `failed`, `metrics`. The exit
status is 0 only when every check passed, and 2 when the checkout lacks the
package or the bundled scenarios.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
SAMPLE = HERE / "sample.py"
WORK = HERE / ".work"

SETUP_PROBES = 5  # import-only interpreters per invocation, beside one per sample
# rounds of the measuring loop made even past --seconds
MIN_SAMPLES = 3
MIN_TRACED = 2
CHILD_TIMEOUT_S = 120
SELF_SUM_TOLERANCE = 0.05  # layer self times must add up to the traced wall


class CheckoutIncomplete(Exception):
    """The package or the bundled scenarios are not where the benchmark expects."""


def _spawn(mode: str, *args: str) -> dict | None:
    """Run sample.py once; its result, or None when it failed."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    command = [sys.executable, str(SAMPLE), repr(spawned_at), mode, *args]
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"sample {mode} timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"sample {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


class Runs:
    """Runs of one workload and seed, with their digest check and failure count."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.scenario = workloads.generate(workload, seed)
        self.scenario_path = workdir / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario), encoding="utf-8")
        self.out = workdir / "out.ndjson"
        # at the default seed the bytes are pinned; elsewhere the first run pins them
        self.expected = workloads.PINNED[workload] if seed == workloads.DEFAULT_SEED else None
        self.attempted = 0
        self.failed = 0

    def _run(self, mode: str, scenario: Path, expected: str | None) -> tuple[dict | None, str | None]:
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        result = _spawn(mode, str(scenario), str(self.out))
        digest = _sha256(self.out)
        if result is None or result["exit"] != 0 or digest is None or (
            expected is not None and digest != expected
        ):
            print(f"{mode} {scenario.name}: exit {result and result['exit']}, "
                  f"sha256 {digest}, expected {expected}", file=sys.stderr)
            self.failed += 1
            return None, digest
        return result, digest

    def check_bundled(self) -> None:
        for name, expected in workloads.BUNDLED.items():
            self._run("run", SCENARIOS / name, expected)

    def sample(self, mode: str) -> dict | None:
        result, digest = self._run(mode, self.scenario_path, self.expected)
        if result is not None and self.expected is None:
            self.expected = digest
        return result

    def loop(self, modes: tuple[str, ...], seconds: float, min_rounds: int) -> dict[str, list[dict]]:
        """Rounds of one sample per mode, until the next round would pass `seconds`."""
        results: dict[str, list[dict]] = {mode: [] for mode in modes}
        rounds: list[float] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for mode in modes:
                result = self.sample(mode)
                if result is not None:
                    results[mode].append(result)
            rounds.append(time.perf_counter() - round_start)
            elapsed = time.perf_counter() - start
            if len(rounds) >= min_rounds and elapsed + statistics.median(rounds) > seconds:
                return results


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(sample[key] for sample in samples)


def _end_to_end(runs: Runs, seconds: float) -> tuple[dict, dict, bool]:
    setups = [_probe()["setup_s"] for _ in range(SETUP_PROBES)]
    samples = runs.loop(("run",), seconds, MIN_SAMPLES)["run"]
    if not samples:
        return {}, {}, False
    setups += [sample["setup_s"] for sample in samples]
    wall = _median(samples, "wall_s")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (_median(samples, "cpu_s"), "s"),
        "peak_rss_mib": (_median(samples, "peak_rss_mib"), "MiB"),
        "client_minutes_per_s": (workloads.client_minutes(runs.scenario) / wall, "1/s"),
    }
    info = {
        "samples": len(samples),
        "setup_samples": len(setups),
        "wall_s": sorted(sample["wall_s"] for sample in samples),
        "setup_s": sorted(setups),
    }
    return metrics, info, True


def _unit(name: str) -> str:
    if name.endswith("mhash_per_s"):
        return "Mhash/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _per_layer(runs: Runs, seconds: float) -> tuple[dict, dict, bool]:
    results = runs.loop(("run", "trace"), seconds, MIN_TRACED)
    plain, traced = results["run"], results["trace"]
    if not plain or not traced:
        return {}, {}, False
    counts = traced[0]["counts"]
    counts_repeat = all(sample["counts"] == counts for sample in traced)
    self_sums = [sample["timings"]["trace.self_sum_ratio"] for sample in traced]
    self_sum_ok = all(abs(ratio - 1) <= SELF_SUM_TOLERANCE for ratio in self_sums)
    values = {
        key: statistics.median(sample["timings"][key] for sample in traced)
        for key in traced[0]["timings"]
    }
    values.update(counts)
    values["trace.overhead_ratio"] = _median(traced, "wall_s") / _median(plain, "wall_s") - 1
    info = {
        "samples": len(plain),
        "traced_samples": len(traced),
        "counts_repeat": counts_repeat,
        "self_sum_ratio": self_sums,
    }
    if not counts_repeat:
        info["counts_seen"] = [sample["counts"] for sample in traced]
    metrics = {name: (value, _unit(name)) for name, value in sorted(values.items())}
    return metrics, info, counts_repeat and self_sum_ok


def _probe() -> dict:
    result = _spawn("probe")
    if result is None:
        raise CheckoutIncomplete("cannot import optoutswarm.cli from src/")
    return result


def _check_checkout() -> dict:
    missing = [
        path for path in [SRC / "optoutswarm" / "cli.py"] + [SCENARIOS / n for n in workloads.BUNDLED]
        if not path.is_file()
    ]
    if missing:
        raise CheckoutIncomplete("missing " + ", ".join(str(p.relative_to(ROOT)) for p in missing))
    # the first interpreter also writes the bytecode caches, so it is not timed
    host = _probe()["host"]
    if not Path(host["optoutswarm_file"]).resolve().is_relative_to(SRC):
        raise CheckoutIncomplete(f"optoutswarm imported from {host['optoutswarm_file']}")
    return host


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        host = _check_checkout()
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
        try:
            runs = Runs(args.workload, args.seed, workdir)
            runs.check_bundled()
            measure = _per_layer if args.trace else _end_to_end
            metrics, info, checks_ok = measure(runs, args.seconds)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except CheckoutIncomplete as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    correct = checks_ok and runs.failed == 0
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "digest": runs.expected,
        "failed_run_share": runs.failed / runs.attempted,
        **info,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
