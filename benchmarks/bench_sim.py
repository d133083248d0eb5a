#!/usr/bin/env python3
"""Fleet ladder: `optoutswarm run` on scenarios/baseline.json at 8 to 1,000 clients.

Each rung scales the baseline's one client group to a fleet size and, for
one rung, raises `max_rand` from the baseline's 200 to the default 10,000.
Two rungs run 40 clients for 4,000 minutes and for one week (10,080
minutes) instead of 400: the events are the same as at 400 minutes, so the
extra time is what idle minutes cost. Two rungs change more of the
scenario, each by a named set of top-level fields (`VARIANTS`). attack_mix
runs 8 clients for 1,000 minutes under the adversaries of perfbench's
attack_mix (a sybil flood of 200 keys, an issuer-rewriting MITM forwarder,
a challenge flood and separation), where the adversaries' roster reads grow
with minutes times campaigns times roster length. week_campaign runs 40
clients for one week with campaigns that last a week, so every launched
campaign bursts until the run ends. The 64-client rung is perfbench's
fleet_handshake workload at its default seed. The 1,000-client rung writes
about 7.5 M events (770 MB of NDJSON) per run, so a full ladder spends most
of its time there.
Each run is a fresh `python -m optoutswarm run SCENARIO --out FILE` child.
`os.wait4` reports that child's own CPU time (user + system) and peak RSS;
its wall time runs from the spawn to the wait. Every rung runs `RUNS` times
per tree and reports medians, and every run must write the NDJSON
pinned for its rung (exit 1 otherwise); the file is hashed and counted in
chunks, so a large run is never held in memory.

With `--parent`, a second source tree runs beside `--src`, alternating run
by run and swapping which goes first, so that drift on a shared host hits
both alike. Both ladders are written, as entries `parent` and `change`, and
each change rung gets a `vs_parent` block: the ratio of the medians and how
many of the paired runs the change won, for wall time, CPU time and peak RSS.

`--rungs` runs only the rungs it names, by their index in `LADDER` (0 is
the 10-client rung); each of them still checks its pin.

`--calls` records three counts beside each rung's timings, per tree:
`calls`, the calls that cProfile counts as pstats' `total_calls` does, which
keeps one of the functions sharing a file, line and name, such as the
constructors of `NamedTuple` records; `raw_calls`, the sum over every
function that `cProfile.Profile.getstats()` lists, so that adding or
removing record constructions shows; and `challenge_target_calls`, the
SHA-256 challenge targets computed. A child process under
`PYTHONHASHSEED=0` runs the rung's scenario once to warm up, then
`COUNT_RUNS` times under cProfile around `simulation.run` with a sink that
discards its lines; the counts must be equal across those runs (exit 1
otherwise). Unlike the timings, they do not drift with the host.

The results are merged into `BENCH_<label>.json` at the repository root,
beside the host facts: nproc, the Python version and the kernel backend
(`pow_backend.BACKEND`). A tree's rungs are merged one by one, keyed by
(clients, max_rand, minutes, variant): a rerun replaces the rungs it ran
and keeps the tree's others. From the repository root:

    python3 benchmarks/bench_sim.py --label schedule --parent ../parent/src
    python3 benchmarks/bench_sim.py --label lazy --entry change
    python3 benchmarks/bench_sim.py --label view --parent ../parent/src --rungs 1 4 7
    python3 benchmarks/bench_sim.py --label target --parent ../parent/src --rungs 10 4 --calls
"""

import argparse
import cProfile
import collections
import hashlib
import json
import os
import pstats
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "scenarios" / "baseline.json"
CHUNK_BYTES = 1 << 20
RUNS = 5
ATTACK_MIX = [
    {"strategy": "sybil_flood", "identity_count": 200},
    {"strategy": "mitm_forwarder", "rewrite_issuer": True},
    {"strategy": "challenge_flood", "victim": 0, "count": 400, "at_minute": 60,
     "max_rand": 10_000},
    {"strategy": "separation", "injection_period": 30, "lead_minutes": 30},
]
# (clients, max_rand, minutes, sha256 of the NDJSON every run must write[, variant])
LADDER = [
    (10, 200, 400, "9df61019bedeadaede8b9f5152de489119bdbe4a0b45884ff5d6d6842ef5c9d3"),
    (40, 200, 400, "8570a367ddc8c029f9dd48b536428a8d6b9d99a88f7ea2f8d4ddb0440c6b9f3f"),
    (40, 200, 4000, "7e40ff0dd8576a3712c7294eecc944068b0735d704f9db497c7bb95ee52c63ee"),
    (40, 200, 10_080, "20cab3edcb7932699b49048cb164afd765859e4385e9cfea25e4c0fd75d3dc88"),
    (160, 200, 400, "7730112ae45838c1c7f3d7f550d3d9bcd18c7e513e15c94afce02ca595d6bd70"),
    (160, 10_000, 400, "5c636aab85537ea3e3a194a95e0e60a01c8c5eff9d6d55621d59e96e3454ca21"),
    (320, 200, 400, "830ad691694f39b9a53a264a848785ddfc09edf697c57cfa40881d280e76702e"),
    (8, 200, 1000, "3260c176067d897bd69d4222c81567b2ffe372d7bbedfa20d851341249131812",
     "attack_mix"),
    (40, 200, 10_080, "80391028d8d7add238f7a19821a638d02702c30e85c8c0c0ba9ea8557a517098",
     "week_campaign"),
    (1000, 200, 400, "11ac8c55a715518997d5b959db00b164527939006f49cd0f096715e96415b91c"),
    (64, 200, 400, "8fb68e2099f627200043e51209573649c8cafdf9be20eb478374cec65c75535f"),
]
# top-level scenario fields a variant rung sets on the scaled baseline
VARIANTS = {
    "attack_mix": {"adversaries": ATTACK_MIX},
    "week_campaign": {"campaign_duration": 10_080},
}
MEASURED = ("wall_s", "cpu_s", "peak_rss_mib")
COUNT_RUNS = 2


def _env(src: Path) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(src)}


def host_facts(src: Path) -> dict:
    # importing pow_backend builds the C kernel on first use, so no timed run pays for it
    backend = subprocess.run(
        [sys.executable, "-c", "from optoutswarm import pow_backend; print(pow_backend.BACKEND)"],
        env=_env(src), capture_output=True, text=True, check=True,
    ).stdout.strip()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "pow_backend": backend}


def one_run(src: Path, scenario: Path, out: Path) -> dict:
    argv = [sys.executable, "-m", "optoutswarm", "run", str(scenario), "--out", str(out)]
    started = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, argv, _env(src),
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _pid, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {os.waitstatus_to_exitcode(status)}")
    digest, size, lines = hashlib.sha256(), 0, 0
    with out.open("rb") as f:
        for chunk in iter(lambda: f.read(CHUNK_BYTES), b""):
            digest.update(chunk)
            size += len(chunk)
            lines += chunk.count(b"\n")
    out.unlink()
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024,  # KiB on Linux
        "ndjson_sha256": digest.hexdigest(),
        "ndjson_bytes": size,
        "events": lines - 1,  # the last line is the summary
    }


def rung_scenario(clients: int, max_rand: int, minutes: int, variant: str | None = None) -> dict:
    """The scaled baseline a rung runs."""
    raw = json.loads(BASELINE.read_text(encoding="utf-8"))
    raw["clients"][0]["count"] = clients
    raw["clients"][0]["trust"]["max_rand"] = max_rand
    raw["duration"] = minutes
    raw.update(VARIANTS.get(variant, {}))
    return raw


def count_run(scenario_path: str) -> dict[str, int]:
    """The counts of one run of a scenario under cProfile; call it after a
    warm-up, which leaves the key caches and lazy imports as every later run
    finds them."""
    from optoutswarm import scenario, simulation

    loaded = scenario.load_file(scenario_path)
    profile = cProfile.Profile()
    profile.runcall(simulation.run, loaded, collections.deque(maxlen=0).append)
    return profile_counts(profile)


def profile_counts(profile: cProfile.Profile) -> dict[str, int]:
    """`calls`, `raw_calls` and `challenge_target_calls` of a finished profile."""
    raw_calls = sum(entry.callcount for entry in profile.getstats())
    stats = pstats.Stats(profile)
    return {
        "calls": stats.total_calls,
        "raw_calls": raw_calls,
        "challenge_target_calls": sum(
            entry[1] for (path, _line, name), entry in stats.stats.items()
            if name == "challenge_target" and path.endswith("crypto.py")
        ),
    }


def count_calls(src: Path, scenario: Path) -> dict[str, int]:
    """`count_run` in a child importing `src`: one warm-up, then `COUNT_RUNS`
    counted runs, which must agree."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from bench_sim import count_run\n"
        "count_run(sys.argv[1])\n"
        f"for _ in range({COUNT_RUNS}):\n"
        "    print(json.dumps(count_run(sys.argv[1])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(scenario)],
        env={**_env(src), "PYTHONHASHSEED": "0"}, capture_output=True, text=True, check=True,
    ).stdout
    return repeated([json.loads(line) for line in out.splitlines()], f"{src} on {scenario}")


def repeated(counts: list[dict[str, int]], what: str) -> dict[str, int]:
    """The counts every run gave; exit 1 if the runs disagree."""
    if any(c != counts[0] for c in counts):
        raise SystemExit(f"bench_sim: counts of {what} differ across runs: {counts}")
    return counts[0]


def rung(
    trees: dict[str, Path], clients: int, max_rand: int, minutes: int, pinned: str,
    workdir: Path, variant: str | None = None, calls: bool = False,
) -> dict[str, dict]:
    """One rung's entry per tree, from `RUNS` runs of each, alternating, and
    with `calls` the counts of `count_calls` beside them."""
    scenario = workdir / f"baseline-{clients}-{max_rand}-{minutes}-{variant}.json"
    scenario.write_text(
        json.dumps(rung_scenario(clients, max_rand, minutes, variant)), encoding="utf-8"
    )
    results: dict[str, list[dict]] = {name: [] for name in trees}
    names = list(trees)
    for i in range(RUNS):
        for name in names if i % 2 == 0 else names[::-1]:
            results[name].append(one_run(trees[name], scenario, workdir / "out.ndjson"))
    entries = {}
    for name, done in results.items():
        wrong = sorted({r["ndjson_sha256"] for r in done} - {pinned})
        if wrong:
            raise SystemExit(
                f"bench_sim: {name} at {clients} clients, max_rand {max_rand}, {minutes} "
                f"minutes wrote NDJSON sha256 {wrong}, pinned {pinned}"
            )
        entry = {"clients": clients, "max_rand": max_rand, "minutes": minutes, "runs": RUNS}
        if variant is not None:
            entry["variant"] = variant
        for key in MEASURED:
            entry[key] = round(statistics.median(r[key] for r in done), 3)
            entry[f"{key}_runs"] = [round(r[key], 3) for r in done]
        entry.update({k: done[0][k] for k in ("ndjson_sha256", "ndjson_bytes", "events")})
        if calls:
            entry.update(count_calls(trees[name], scenario))
        entries[name] = entry
    if "parent" in entries:
        entries["change"]["vs_parent"] = vs_parent(entries["parent"], entries["change"])
    return entries


def vs_parent(parent: dict, change: dict) -> dict[str, dict]:
    """Per measure, the ratio of the change's median to the parent's, and the
    number of paired runs in which the change measured lower."""
    return {
        key: {
            "median_ratio": round(change[key] / parent[key], 3),
            "runs_won": sum(c < p for c, p in zip(change[f"{key}_runs"], parent[f"{key}_runs"])),
        }
        for key in MEASURED
    }


def _rung_key(entry: dict) -> tuple:
    return entry["clients"], entry["max_rand"], entry["minutes"], entry.get("variant")


def merge(bench: dict, ladders: dict[str, dict]) -> dict:
    """`bench` with each tree's new rungs in place of its old ones of the same
    key, its other rungs kept, and the new host facts."""
    entries = bench.setdefault("entries", {})
    for name, new in ladders.items():
        rungs = {_rung_key(e): e for e in entries.get(name, {}).get("ladder", [])}
        rungs.update((_rung_key(e), e) for e in new["ladder"])
        entries[name] = {**new, "ladder": list(rungs.values())}
    return bench


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="source tree the children import (default: this checkout's)")
    side = parser.add_mutually_exclusive_group(required=True)
    side.add_argument("--entry", help="name of the one entry --src writes")
    side.add_argument("--parent", type=Path,
                      help="a second source tree to alternate with --src, run by run; "
                           "writes entries parent and change")
    parser.add_argument("--rungs", type=int, nargs="+", choices=range(len(LADDER)),
                        metavar="INDEX", help="run only these rungs of LADDER (default: all)")
    parser.add_argument("--calls", action="store_true",
                        help="also record each rung's call, raw call and challenge-target counts")
    args = parser.parse_args()

    if args.parent is None:
        trees = {args.entry: args.src.resolve()}
    else:
        trees = {"parent": args.parent.resolve(), "change": args.src.resolve()}
    ladders = {name: {"host": host_facts(src), "ladder": []} for name, src in trees.items()}
    with tempfile.TemporaryDirectory(prefix="bench_sim-") as tmp:
        for index in args.rungs or range(len(LADDER)):
            clients, max_rand, minutes, pinned, *variant = LADDER[index]
            entries = rung(
                trees, clients, max_rand, minutes, pinned, Path(tmp), *variant, calls=args.calls
            )
            for name, entry in entries.items():
                ladders[name]["ladder"].append(entry)
                print(json.dumps({"tree": name, **entry}), flush=True)

    path = ROOT / f"BENCH_{args.label}.json"
    bench = merge(json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}, ladders)
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
