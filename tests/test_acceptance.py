"""Acceptance suite: the ten properties the package is contractually held to.

Each test prints one `criterion N ... PASS/FAIL` line (run pytest with -s to
see them) and then asserts, so a red test and a FAIL line always agree.
"""

import dataclasses
import statistics
import time
from pathlib import Path
from random import Random

from optoutswarm import crypto, trust, website
from optoutswarm.dht import SimulatedDht, derive_key
from optoutswarm.evaluator import canonicalize
from optoutswarm.scenario import from_dict, load_file
from optoutswarm.simulation import Simulation, convergence, run
from optoutswarm.trust import CampaignOutcome, TrustConfig, TrustDb, Verdict
from optoutswarm.website import TargetSite, TrafficLedger

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(number: int, label: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} [{label}]: {state}{suffix}")
    assert ok, f"criterion {number} [{label}] failed{suffix}"


def test_criterion_01_pow_round_trip_and_hardness():
    max_rand = 10_000
    rng = Random("acceptance:pow")
    started = time.perf_counter()
    works = []
    all_match = True
    for i in range(200):
        issuer = crypto.generate_identity(rng)
        challenge, expected = crypto.generate_challenge(issuer, max_rand, rng)
        # solved from its wire form, which carries no answer, so the kernel scans
        rand2, work = crypto.solve_challenge(crypto.decode_payload(bytes(challenge)), max_rand)
        all_match = all_match and rand2 == expected
        works.append(work)
    elapsed = time.perf_counter() - started
    mean_work = statistics.mean(works)
    lo, hi = 0.4 * (max_rand + 1), 0.6 * (max_rand + 1)
    ok = all_match and lo <= mean_work <= hi and elapsed < 10.0
    _verdict(
        1, "pow round-trip and hardness", ok,
        f"mean_work={mean_work:.1f} in [{lo:.0f},{hi:.0f}], {elapsed:.2f}s",
    )


def test_criterion_02_forwarded_challenges_never_verify_the_forwarder():
    sim = Simulation(load_file(str(SCENARIOS / "mitm_forwarder.json")))
    sim.run()
    forwarder = sim.adversaries[0]
    forwarded = forwarder.counters.get("forwarded", 0)
    verified_at_forwarder = sum(
        forwarder.identity.public_key in client.trust_db.verified
        for client in sim.clients
    )
    ok = forwarded >= 100 and verified_at_forwarder == 0
    _verdict(
        2, "relayed challenges yield the relay nothing", ok,
        f"forwarded={forwarded}, verified_at_forwarder={verified_at_forwarder}",
    )


def test_criterion_03_far_future_starts_are_never_joined():
    scenario = load_file(str(SCENARIOS / "time_portal.json"))
    with_adversary = run(scenario)
    without = run(dataclasses.replace(scenario, adversaries=()))
    joins = with_adversary.summary["totals"]["honest_joins_on_adversarial"]
    launched = with_adversary.summary["totals"]["campaigns_launched"]
    launched_clean = without.summary["totals"]["campaigns_launched"]
    ok = joins == 0 and launched == launched_clean
    _verdict(
        3, "far-future starts neutralized", ok,
        f"adversarial_joins={joins}, launched={launched} vs clean={launched_clean}",
    )


def test_criterion_04_start_flooding_does_not_fragment_the_fleet():
    base = load_file(str(SCENARIOS / "separation.json"))
    good_seeds = 0
    for seed in range(20):
        report = run(dataclasses.replace(base, seed=seed))
        if any(
            c["honest_comrades"] > 5 for c in report.summary["campaigns"]
        ):
            good_seeds += 1
    ok = good_seeds >= 18
    _verdict(
        4, "fleet outweighs start flooding", ok, f"good_seeds={good_seeds}/20"
    )


def test_criterion_05_answer_budget_caps_a_challenge_flood():
    report = run(load_file(str(SCENARIOS / "challenge_flood.json")))
    victim = report.summary["clients"][0]
    flood = report.summary["adversaries"][0]["counters"]["challenges_sent"]
    ok = flood == 200 and victim["solve_attempts"] == 10
    _verdict(
        5, "answer budget caps solve attempts", ok,
        f"received={flood}, solve_attempts={victim['solve_attempts']}",
    )


def test_criterion_06_trust_trajectory_success_success_then_collapse():
    a, b = b"a" * 32, b"b" * 32
    cfg = TrustConfig(failures_before_reset=3)
    db = TrustDb()

    def measured(verdict: Verdict) -> CampaignOutcome:
        during = 300.0 if verdict is Verdict.SUCCESS else 100.0
        return CampaignOutcome(100.0, during, comrades=(a, b))

    trust.apply_outcome(db, Verdict.SUCCESS, measured(Verdict.SUCCESS), cfg)
    trust.apply_outcome(db, Verdict.SUCCESS, measured(Verdict.SUCCESS), cfg)
    after_successes = dict(db.records)
    threshold_after = db.current_min_accumulated_trust
    for _ in range(3):
        trust.apply_outcome(db, Verdict.FAILURE, measured(Verdict.FAILURE), cfg)
    ok = (
        after_successes == {a: 2, b: 2}
        and threshold_after == 2
        and db.records == {}
        and db.reset_count == 1
        and db.current_min_accumulated_trust == 2
    )
    _verdict(
        6, "trust: reward twice, then wipe on a failure streak", ok,
        f"after_successes={ {k.hex()[:4]: v for k, v in after_successes.items()} },"
        f" final_records={len(db.records)}",
    )


def _convergence_scenario(seed: int) -> dict:
    url = "http://pills.example/buy"
    group = {
        "count": 25,
        "config": {
            "min_wait": 30,
            "max_wait": 240,
            "min_comrades": 5,
            "poll_interval": 10,
            "max_challenges_answered": 60,
            "usage_windows": [[0, 300]],
        },
        "trust": {"max_rand": 200},
    }
    other = {
        **group,
        "config": {**group["config"], "usage_windows": [[100, 500]]},
    }
    return {
        "seed": seed,
        "duration": 400,
        "clients": [group, other],
        "spam_injections": [
            {"minute": 5, "clients": list(range(25)), "body": f"buy {url} now"},
            {"minute": 45, "clients": list(range(25, 50)), "body": f"buy {url} now"},
        ],
    }


def test_criterion_07_fleet_converges_and_launches():
    url = "http://pills.example/buy"
    good_seeds = 0
    slowest = 0.0
    for seed in range(20):
        started = time.perf_counter()
        report = run(from_dict(_convergence_scenario(seed)))
        slowest = max(slowest, time.perf_counter() - started)
        ratio = convergence(report, url)
        launched = report.summary["totals"]["campaigns_launched"] >= 1
        if ratio >= 5 / 50 and launched:
            good_seeds += 1
    ok = good_seeds >= 18 and slowest < 5.0
    _verdict(
        7, "50-client fleet converges and launches", ok,
        f"good_seeds={good_seeds}/20, slowest_run={slowest:.2f}s",
    )


def test_criterion_08_economics_match_hand_arithmetic():
    site = TargetSite(
        url=canonicalize("http://pills.example/buy"),
        base_latency=100.0,
        capacity=100.0,
        timeout=5000.0,
        request_bytes=2048,
        cost_per_gib=0.05,
        visitor_rate=20.0,
        revenue_per_visit=1.25,
        patience=400.0,
    )
    # the formula itself, at exactly 3x capacity
    formula_ok = website.response_time(site, 300) == min(5000.0, 10 * 100.0) == 1000.0

    # scripted campaign: 25 comrades x 12 requests = 300 = 3x capacity,
    # bursting precisely on the five in-campaign probe minutes
    ledger = TrafficLedger()
    start = 100
    baseline_minutes = [start - 30 + 6 * k for k in range(5)]
    during_minutes = [start + 6 * k for k in range(5)]
    for minute in during_minutes:
        website.send_opt_out_burst(ledger, 25 * 12, range(minute, minute + 1))
    baseline = [website.probe(site, m, ledger) for m in baseline_minutes]
    during = [website.probe(site, m, ledger) for m in during_minutes]
    # loads: 1 probe + 20 visitors = 21; 300 + 1 + 20 = 321
    expected_baseline = 100.0 * (1.0 + (21 / 100) ** 2)
    expected_during = 100.0 * (1.0 + (321 / 100) ** 2)
    probes_ok = (
        statistics.median(baseline) == expected_baseline
        and statistics.median(during) == expected_during
    )

    outcome = CampaignOutcome(
        baseline_latency=statistics.median(baseline),
        during_latency=statistics.median(during),
        comrades=(),
    )
    judged_ok = trust.judge_outcome(outcome, alpha=2.0) is Verdict.SUCCESS

    for minute in range(60, 130):
        website.settle_minute(site, minute, ledger)
    # visitors lost only in the five saturated minutes: 5 x 20 x 1.25
    lost_ok = ledger.lost_revenue == 5 * 20 * 1.25 == 125.0
    total_requests = 5 * 21 + 5 * 321 + 60 * 20
    bytes_ok = ledger.traffic_bytes == total_requests * 2048
    cost_expected = total_requests * 2048 * 0.05 / 2**30
    cost_ok = abs(ledger.traffic_cost - cost_expected) < 1e-15

    ok = formula_ok and probes_ok and judged_ok and lost_ok and bytes_ok and cost_ok
    _verdict(
        8, "economics equal the closed-form arithmetic", ok,
        f"during={statistics.median(during):.2f}ms, lost={ledger.lost_revenue}",
    )


def test_criterion_09_dht_matches_reference_oracle():
    keys = [derive_key(f"key-{i}".encode()) for i in range(5)]
    values = [f"value-{i}".encode() for i in range(20)]
    ttl = 40
    ok = True
    total_ops = 0

    def matches(key, now):
        # insertion order; an expired entry is invisible until re-put
        expected = [v for v, at in oracle.get(key.key, {}).items() if now <= at + ttl]
        return dht.get(key, now) == expected and all(
            dht.contains(key, v, now) == (v in expected) for v in values
        )

    for seed in range(10):
        rng = Random(f"acceptance:dht:{seed}")
        dht = SimulatedDht(ttl_minutes=ttl)
        oracle: dict[bytes, dict[bytes, int]] = {}
        now = 0
        for _ in range(1000):
            total_ops += 1
            now += rng.randrange(3)
            op = rng.choice(("put", "put", "get", "remove"))
            key = rng.choice(keys)
            if op == "put":
                value = rng.choice(values)
                dht.put(key, value, now)
                entries = oracle.setdefault(key.key, {})
                if value in entries and now > entries[value] + ttl:
                    del entries[value]  # an expired value is stored afresh at the end
                entries[value] = now
            elif op == "remove":
                value = rng.choice(values)
                dht.remove(key, value)
                oracle.get(key.key, {}).pop(value, None)
            ok = ok and matches(key, now)
        # final sweep over every key at the final clock
        for key in keys:
            ok = ok and matches(key, now)
    _verdict(9, "store matches insertion-ordered oracle", ok, f"ops={total_ops}")


def test_criterion_10_same_seed_runs_are_byte_identical():
    ok = True
    checked = []
    for name in ("baseline.json", "separation.json", "challenge_flood.json"):
        scenario = load_file(str(SCENARIOS / name))
        first = run(scenario).to_ndjson().encode()
        second = run(scenario).to_ndjson().encode()
        ok = ok and first == second
        checked.append(name)
    _verdict(
        10, "seeded runs replay byte-identically", ok, f"scenarios={checked}"
    )
