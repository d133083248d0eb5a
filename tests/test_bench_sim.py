"""`benchmarks/bench_sim.py` merges a rerun into its results file by rung,
its scenarios are those that perfbench and the golden digests pin, and its
counts repeat."""

import cProfile
import importlib.util
import json
from pathlib import Path
from typing import NamedTuple

import pytest

from test_golden import GOLDEN

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_sim = _load("bench_sim", ROOT / "benchmarks" / "bench_sim.py")
workloads = _load("perfbench_workloads", ROOT / "perfbench" / "workloads.py")


def test_the_attack_mix_is_perfbench_s():
    assert bench_sim.ATTACK_MIX == workloads.generate("attack_mix", 42)["adversaries"]


def test_the_first_rung_is_the_pinned_baseline():
    *_size, pinned = bench_sim.LADDER[0]
    assert pinned == GOLDEN["baseline.json"] == workloads.BUNDLED["baseline.json"]


def test_the_64_client_rung_is_perfbench_s_fleet_handshake():
    (index,) = [i for i, rung in enumerate(bench_sim.LADDER) if rung[0] == 64]
    clients, max_rand, minutes, pinned = bench_sim.LADDER[index]
    assert bench_sim.rung_scenario(clients, max_rand, minutes) == workloads.generate(
        "fleet_handshake", workloads.DEFAULT_SEED
    )
    assert pinned == workloads.PINNED["fleet_handshake"]


def test_a_child_counts_the_calls_of_a_run_and_hashes_no_target():
    counts = bench_sim.count_calls(ROOT / "src", ROOT / "scenarios" / "baseline.json")
    assert set(counts) == {"calls", "raw_calls", "challenge_target_calls"}
    assert counts["raw_calls"] >= counts["calls"] > 0
    assert counts["challenge_target_calls"] == 0  # every challenge is drawn


def test_counts_repeat_after_a_warm_up_and_hash_no_rewritten_copy_s_target(tmp_path):
    raw = json.loads((ROOT / "scenarios" / "mitm_forwarder.json").read_text(encoding="utf-8"))
    raw["adversaries"] = [{"strategy": "mitm_forwarder", "rewrite_issuer": True}]
    path = tmp_path / "rewriting.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    _warm_up, *counts = [bench_sim.count_run(str(path)) for _ in range(3)]
    assert bench_sim.repeated(counts, "rewriting") == counts[0]
    # a copy reads its original's target only when its bytes are taken, and
    # its victims refuse it by its key
    assert counts[0]["challenge_target_calls"] == 0


class First(NamedTuple):
    value: int


class Second(NamedTuple):
    value: int


def _constructions(firsts: int, seconds: int) -> dict[str, int]:
    def build():
        return [First(i) for i in range(firsts)] + [Second(i) for i in range(seconds)]

    profile = cProfile.Profile()
    profile.runcall(build)
    return bench_sim.profile_counts(profile)


def test_raw_calls_count_each_record_class_s_constructions():
    # both classes' constructors are `<string>:1(<lambda>)`, of which pstats
    # keeps one; `raw_calls` sees one more construction of either class
    base = _constructions(3, 5)
    more_firsts, more_seconds = _constructions(4, 5), _constructions(3, 6)
    # each construction is the record's `__new__` plus the `tuple.__new__` it calls
    assert more_firsts["raw_calls"] - base["raw_calls"] == 2
    assert more_seconds["raw_calls"] - base["raw_calls"] == 2
    assert 1 in {more_firsts["calls"] - base["calls"], more_seconds["calls"] - base["calls"]}


def test_counts_that_differ_across_runs_exit():
    with pytest.raises(SystemExit, match="differ"):
        bench_sim.repeated([{"calls": 1}, {"calls": 2}], "a run")


def test_vs_parent_compares_wall_cpu_and_peak_rss_run_by_run():
    parent = {"wall_s": 2.0, "wall_s_runs": [2.0, 1.0, 3.0],
              "cpu_s": 1.0, "cpu_s_runs": [1.0, 1.0, 1.0],
              "peak_rss_mib": 30.0, "peak_rss_mib_runs": [30.0, 29.0, 31.0]}
    change = {"wall_s": 1.0, "wall_s_runs": [1.0, 2.0, 1.0],
              "cpu_s": 1.0, "cpu_s_runs": [1.0, 0.5, 1.5],
              "peak_rss_mib": 25.0, "peak_rss_mib_runs": [25.0, 24.0, 26.0]}
    assert bench_sim.vs_parent(parent, change) == {
        "wall_s": {"median_ratio": 0.5, "runs_won": 2},
        "cpu_s": {"median_ratio": 1.0, "runs_won": 1},  # a tie wins nothing
        "peak_rss_mib": {"median_ratio": 0.833, "runs_won": 3},
    }


def _entry(index: int, wall_s: float) -> dict:
    clients, max_rand, minutes, pinned, *variant = bench_sim.LADDER[index]
    entry = {"clients": clients, "max_rand": max_rand, "minutes": minutes,
             "ndjson_sha256": pinned, "wall_s": wall_s}
    if variant:
        entry["variant"] = variant[0]
    return entry


def test_a_rerun_replaces_its_rungs_and_keeps_the_others():
    old = {"parent": {"host": {"nproc": 2}, "ladder": [_entry(i, 1.0) for i in (1, 4, 7)]},
           "change": {"host": {"nproc": 2}, "ladder": [_entry(i, 2.0) for i in (1, 4, 7)]}}
    bench = {"entries": old, "note": "kept"}
    rerun = {"parent": {"host": {"nproc": 4}, "ladder": [_entry(7, 3.0)]},
             "change": {"host": {"nproc": 4}, "ladder": [_entry(7, 4.0), _entry(8, 5.0)]}}
    merged = bench_sim.merge(bench, rerun)
    assert merged["note"] == "kept"
    assert merged["entries"]["parent"] == {
        "host": {"nproc": 4}, "ladder": [_entry(1, 1.0), _entry(4, 1.0), _entry(7, 3.0)]
    }
    assert merged["entries"]["change"] == {
        "host": {"nproc": 4},
        "ladder": [_entry(1, 2.0), _entry(4, 2.0), _entry(7, 4.0), _entry(8, 5.0)],
    }


def test_rungs_of_one_size_differ_by_minutes_and_variant():
    # rungs 3 and 8 share clients, max_rand and minutes; only the variant tells them apart
    keys = [bench_sim._rung_key(_entry(i, 0.0)) for i in range(len(bench_sim.LADDER))]
    assert len(set(keys)) == len(keys)
    merged = bench_sim.merge({}, {"change": {"host": {}, "ladder": [_entry(3, 1.0)]}})
    merged = bench_sim.merge(merged, {"change": {"host": {}, "ladder": [_entry(8, 2.0)]}})
    assert merged["entries"]["change"]["ladder"] == [_entry(3, 1.0), _entry(8, 2.0)]
