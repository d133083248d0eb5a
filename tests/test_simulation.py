"""End-to-end simulation behavior: fleet runs, ordering, determinism."""

import dataclasses
import functools
import hashlib
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from test_bench_sim import bench_sim
from optoutswarm import coordinator, crypto, dht, trust, website
from optoutswarm.coordinator import CampaignStart
from optoutswarm.scenario import ADVERSARIES, from_dict, load_file
from optoutswarm.simulation import (
    _ADVERSARY_CLASSES, MetricsReport, NoSuchCampaign, Simulation, convergence, run,
    _Adversary, _ChallengeFloodAdversary, _MitmForwarderAdversary, _StartInjector,
    _SybilFloodAdversary, median,
)

URL = "http://pills.example/buy"
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def bundled(name: str) -> dict:
    """A bundled scenario's raw fields, found from this file, not the working directory."""
    with open(SCENARIOS / name, encoding="utf-8") as f:
        return json.load(f)


def _events(report: MetricsReport) -> list[dict]:
    return [json.loads(line) for line in report.events]


def fleet_scenario(**overrides) -> dict:
    """Small fast fleet: one site, one spam wave, verification-friendly."""
    raw = {
        "seed": 11,
        "duration": 400,
        "clients": [{
            "count": 8,
            "config": {
                "min_wait": 30,
                "max_wait": 240,
                "min_comrades": 4,
                "poll_interval": 10,
                "max_challenges_answered": 60,
            },
            "trust": {"max_rand": 150},
        }],
        "target_sites": [{
            "url": URL,
            "base_latency": 100.0,
            "capacity": 120.0,
            "timeout": 5000.0,
            "request_bytes": 2048,
            "cost_per_gib": 0.05,
            "visitor_rate": 10.0,
            "revenue_per_visit": 1.5,
            "patience": 200.0,
        }],
        "spam_injections": [{
            "minute": 5,
            "clients": "all",
            "body": f"unbeatable prices at {URL}?uid=x123 today",
        }],
        "opt_out_rate": 18,
        "campaign_duration": 30,
    }
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def report() -> MetricsReport:
    return run(from_dict(fleet_scenario()))


class TestFleetRun:
    def test_single_campaign_everyone_joins(self, report):
        campaigns = report.summary["campaigns"]
        assert len(campaigns) == 1
        assert campaigns[0]["comrade_count"] == 8
        assert campaigns[0]["honest_comrades"] == 8
        assert campaigns[0]["launched_by"] == 8
        assert not campaigns[0]["adversarial"]

    def test_full_convergence(self, report):
        assert convergence(report, URL) == 1.0

    def test_everyone_verifies_everyone(self, report):
        for client in report.summary["clients"]:
            assert client["verified_peers"] == 7

    def test_successful_campaign_raises_trust_and_threshold(self, report):
        for client in report.summary["clients"]:
            assert len(client["trust_records"]) == 7
            assert all(v >= 1 for v in client["trust_records"].values())
            assert client["min_accumulated_trust"] == 1
            assert client["trust_resets"] == 0

    def test_site_felt_the_campaign(self, report):
        site = report.summary["sites"][URL]
        # 8 clients x 18 requests/minute x 30 minutes
        assert site["opt_out_requests"] == 8 * 18 * 30
        assert site["visitors_lost"] > 0
        assert site["lost_revenue"] == site["visitors_lost"] * 1.5
        assert site["traffic_cost"] > 0

    def test_everyone_judged_success(self, report):
        judged = [e for e in _events(report) if e["type"] == "outcome_judged"]
        assert len(judged) == 8
        assert all(e["verdict"] == "success" for e in judged)
        assert all(e["during_ms"] >= 2 * e["baseline_ms"] for e in judged)

    def test_unknown_url_raises(self, report):
        with pytest.raises(NoSuchCampaign):
            convergence(report, "http://never.example/")


PHASE_RANK = {
    "no_feasible_start": 2,
    "campaign_proposed": 2,
    "campaign_joined": 2,
    "challenge_answered": 3,
    "challenge_dropped": 3,
    "verification": 3,
    "challenge_sent": 3,
    "launch_decision": 4,
    "outcome_judged": 6,
    "outcome_unjudged": 6,
    "trust_reset": 6,
    "site_minute": 7,
}


def test_phases_keep_fixed_order_within_each_minute(report):
    assert report.events, "expected a non-trivial event stream"
    by_minute: dict[int, list[int]] = {}
    for event in _events(report):
        by_minute.setdefault(event["t"], []).append(PHASE_RANK[event["type"]])
    for minute, ranks in by_minute.items():
        assert ranks == sorted(ranks), f"phase order violated at minute {minute}"


class TestDeterminism:
    def test_same_scenario_is_byte_identical(self):
        scenario = from_dict(fleet_scenario())
        first = run(scenario).to_ndjson()
        second = run(scenario).to_ndjson()
        assert first == second

    def test_seed_changes_the_run(self):
        starts = set()
        for seed in range(5):
            report = run(from_dict(fleet_scenario(seed=seed)))
            starts.add(report.summary["campaigns"][0]["start"])
        assert len(starts) >= 2

    def test_ndjson_lines_parse_and_end_with_summary(self):
        report = run(from_dict(fleet_scenario()))
        lines = report.to_ndjson().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[-1]["type"] == "summary"
        assert all("t" in p for p in parsed[:-1])


class TestPolicies:
    def test_reject_all_reports_nothing(self):
        report = run(from_dict(fleet_scenario(confirm_policy="reject_all")))
        assert report.summary["campaigns"] == []
        assert report.summary["convergence"] == {}
        assert not any(e["type"] == "campaign_joined" for e in _events(report))
        with pytest.raises(NoSuchCampaign):
            convergence(report, URL)

    def test_unlaunchable_fleet_never_touches_the_site(self):
        raw = fleet_scenario()
        raw["clients"][0]["config"]["min_comrades"] = 50
        report = run(from_dict(raw))
        site = report.summary["sites"][URL]
        assert site["opt_out_requests"] == 0
        assert report.summary["totals"]["campaigns_launched"] == 0
        decisions = [e for e in _events(report) if e["type"] == "launch_decision"]
        assert decisions and all(not e["launched"] for e in decisions)

    def test_infeasible_usage_windows_yield_zero_convergence(self):
        raw = fleet_scenario(duration=240)
        raw["clients"][0]["config"]["usage_windows"] = [[0, 1]]
        report = run(from_dict(raw))
        assert any(e["type"] == "no_feasible_start" for e in _events(report))
        assert convergence(report, URL) == 0.0


class TestForwardedChallenges:
    def test_issuer_rewrite_burns_full_scans(self):
        raw = fleet_scenario(duration=240)
        raw["clients"][0]["count"] = 3
        raw["clients"][0]["config"]["min_comrades"] = 50
        raw["clients"][0]["trust"]["max_rand"] = 50
        raw["target_sites"] = []
        raw["adversaries"] = [{"strategy": "mitm_forwarder", "rewrite_issuer": True}]
        report = run(from_dict(raw))
        forwarded = report.summary["adversaries"][0]["counters"].get("forwarded", 0)
        assert forwarded > 0
        burned = [
            e for e in _events(report)
            if e["type"] == "challenge_dropped" and e["reason"] == "no_solution"
        ]
        assert burned, "rewritten challenges should be unsolvable"
        # nobody can have verified the forwarder: 2 honest peers at most
        for client in report.summary["clients"]:
            assert client["verified_peers"] <= 2


def test_bundled_baseline_scenario_converges():
    report = run(load_file(str(SCENARIOS / "baseline.json")))
    campaigns = report.summary["campaigns"]
    assert len(campaigns) == 1
    assert campaigns[0]["comrade_count"] == 10
    assert campaigns[0]["launched_by"] == 10
    assert convergence(report, URL) == 1.0


def test_every_validated_strategy_has_an_adversary_class():
    # a strategy only scenario.ADVERSARIES knows would validate, then die mid-run
    assert set(ADVERSARIES) == set(_ADVERSARY_CLASSES)


def test_module_level_run_matches_class(tmp_path):
    scenario = load_file(str(SCENARIOS / "baseline.json"))
    small = dataclasses.replace(scenario, duration=260)
    assert run(small).to_ndjson() == Simulation(small).run().to_ndjson()


def test_only_due_peers_reach_initiate_verification(monkeypatch):
    # 100 sybil keys never answer; a peer with a live challenge is skipped
    # before the call, so every peer it gets is sent a challenge (without the
    # skip: 31,256 peers)
    peers = 0
    initiate = trust.initiate_verification

    def counted(me, due, *args):
        nonlocal peers
        peers += len(due)
        return initiate(me, due, *args)

    monkeypatch.setattr(trust, "initiate_verification", counted)
    report = run(load_file(str(SCENARIOS / "sybil_flood.json")))
    sent = sum(e["type"] == "challenge_sent" for e in _events(report))
    assert peers == sent == 3256


def test_no_mail_is_kept_for_inboxes_nobody_polls():
    # honest clients challenge the sybil keys on their rosters, and nobody
    # polls a sybil's inbox, so none of those challenges is stored
    sim = Simulation(load_file(str(SCENARIOS / "sybil_flood.json")))
    report = sim.run()
    (sybil,) = sim.adversaries
    challenged = {e["peer"] for e in _events(report) if e["type"] == "challenge_sent"}
    assert challenged & {pk.hex() for pk in sybil.sybil_keys}
    for pk in sybil.sybil_keys:
        assert sim.dht.appended(dht.inbox_key(pk), 0) == ([], 0)


def _rewriting_forwarder() -> dict:
    raw = bundled("mitm_forwarder.json")
    raw["adversaries"] = [{"strategy": "mitm_forwarder", "rewrite_issuer": True}]
    return raw


@pytest.mark.parametrize(
    "raw",
    [bundled("baseline.json"), bundled("sybil_flood.json"), bundled("mitm_forwarder.json"),
     _rewriting_forwarder()],
    ids=["baseline", "sybil_flood", "mitm_forwarder", "mitm_forwarder_rewriting"],
)
def test_a_run_hashes_a_target_only_for_a_rewritten_copy(monkeypatch, raw):
    # every challenge is drawn and solved from its carried answer, and relayed
    # as it is or in a rewritten copy that keeps it, which its victims refuse
    # by its key: in process no target is read, not even a rewritten copy's
    hashed = copies = 0
    challenge_target, poll_inbox = crypto.challenge_target, coordinator.poll_inbox

    def hashing(*args):
        nonlocal hashed
        hashed += 1
        return challenge_target(*args)

    def polling(now, store, identity):
        nonlocal copies
        messages = poll_inbox(now, store, identity)
        if identity.public_key == forwarder_key:  # it rewrites each challenge it gets
            copies += sum(isinstance(m, crypto.Challenge) for m in messages)
        return messages

    monkeypatch.setattr(crypto, "challenge_target", hashing)
    monkeypatch.setattr(coordinator, "poll_inbox", polling)
    sim = Simulation(from_dict(raw))
    rewriting = [a for a in sim.adversaries if a.spec.params.get("rewrite_issuer")]
    forwarder_key = rewriting[0].identity.public_key if rewriting else None
    report = sim.run()
    assert sum(e["type"] == "challenge_answered" for e in _events(report))
    assert hashed == 0
    assert bool(copies) == bool(rewriting)


def test_a_copy_of_a_rewritten_copy_keeps_its_original(monkeypatch):
    # behind a plain forwarder, a rewriting one drains the other's copies; it
    # copies what they copied, so two copies are equal when their bytes are
    drained, posted = Counter(), []
    poll_inbox, post = coordinator.poll_inbox, trust.post

    def polling(now, store, identity):
        messages = poll_inbox(now, store, identity)
        if identity.public_key in rewriting:
            drained.update(type(m) for m in messages)
        return messages

    def posting(store, recipient, message, now):
        posted.append(message)
        post(store, recipient, message, now)

    monkeypatch.setattr(coordinator, "poll_inbox", polling)
    monkeypatch.setattr(trust, "post", posting)
    raw = bundled("mitm_forwarder.json")
    raw["adversaries"] = [
        {"strategy": "mitm_forwarder", "rewrite_issuer": rewrite} for rewrite in (True, False, True)
    ]
    sim = Simulation(from_dict(raw))
    rewriting = {a.identity.public_key for a in sim.adversaries if a.spec.params["rewrite_issuer"]}
    sim.run()
    assert drained[crypto.RelayedChallenge]
    copies = [m for m in posted if type(m) is crypto.RelayedChallenge]
    assert {type(m[2]) for m in copies} == {crypto.DrawnChallenge}


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(values=st.one_of(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12),
    st.lists(finite, min_size=1, max_size=12),
))
@settings(max_examples=200, deadline=None)
def test_median_is_statistics_median(values):
    expected = statistics.median(values)
    got = median(values)
    assert type(got) is type(expected)
    assert got == expected


def test_honest_clients_and_the_forwarder_read_their_inboxes():
    sim = Simulation(from_dict(attack_mix()))
    (forwarder,) = [a for a in sim.adversaries if isinstance(a, _MitmForwarderAdversary)]
    assert sim.dht.inbox_readers == {c.identity.public_key for c in sim.clients} | {
        forwarder.identity.public_key
    }


@pytest.mark.parametrize("probe_count", [1, 5, 7, 30])
@pytest.mark.parametrize("waits", [(60, 240), (10, 20)], ids=["joined_early", "joined_late"])
def test_probe_schedule(monkeypatch, probe_count, waits):
    # one client, so every probe belongs to the one campaign it proposes
    probed = []
    probe = website.probe

    def recorded(site, now, ledger):
        probed.append(now)
        return probe(site, now, ledger)

    monkeypatch.setattr(website, "probe", recorded)
    raw = fleet_scenario(duration=300)
    raw["clients"][0].update(count=1, trust={"probe_count": probe_count})
    raw["clients"][0]["config"].update(min_wait=waits[0], max_wait=waits[1])
    report = run(from_dict(raw))
    (joined,) = [e for e in _events(report) if e["type"] == "campaign_joined"]
    start = joined["start"]
    spacing = 30 // probe_count
    baseline = [start - 30 + spacing * k for k in range(probe_count)]
    during = [start + spacing * k for k in range(probe_count)]
    assert probed == [t for t in baseline if t >= joined["t"]] + during
    judged = [e for e in _events(report) if e["type"] in ("outcome_judged", "outcome_unjudged")]
    assert [e["t"] for e in judged] == [start + 30]
    # a late joiner misses the first baseline probes, so it cannot judge
    early = start - 30 >= joined["t"]
    assert judged[0]["type"] == ("outcome_judged" if early else "outcome_unjudged")


def _fresh_announced(sim, now):
    """Every announced campaign, read afresh from the campaign tables."""
    return [
        CampaignStart(url, start)
        for url in sim.known_urls()
        for start in coordinator.read_starts(sim.dht, url, now)
    ]


class _FullReadMitm(_MitmForwarderAdversary):
    """The forwarder putting its key on and reading every announced roster,
    read afresh, every minute before its drain."""

    def step(self, sim, now):
        victims = set()
        for campaign in _fresh_announced(sim, now):
            coordinator.register(sim.dht, campaign, self.identity.public_key, now)
            victims.update(coordinator.read_comrades(sim.dht, campaign, now))
        victims.discard(self.identity.public_key)
        for message in coordinator.poll_inbox(now, sim.dht, self.identity):
            if not isinstance(message, crypto.Challenge):
                continue
            forwarded = message
            if self.spec.params["rewrite_issuer"]:
                forwarded = crypto.Challenge(
                    issuer_public_key=self.identity.public_key,
                    rand1=message.rand1,
                    target_hash=message.target_hash,
                )
            for victim_pk in sorted(victims - {message.issuer_public_key}):
                trust.post(sim.dht, victim_pk, forwarded, now)
                self.counters["forwarded"] += 1


class _FullReadSybil(_SybilFloodAdversary):
    """The sybil reading every announced roster, read afresh, every minute."""

    def step(self, sim, now):
        for campaign in _fresh_announced(sim, now):
            live = set(coordinator.read_comrades(sim.dht, campaign, now))
            for pk in self.sybil_keys:
                if pk not in live:
                    coordinator.register(sim.dht, campaign, pk, now)
                    self.counters["registered"] += 1


def attack_mix() -> dict:
    """The baseline at 8 clients for 250 minutes under the four-adversary mix."""
    raw = bundled("baseline.json")
    raw["clients"][0]["count"] = 8
    raw["duration"] = 250
    raw["adversaries"] = bench_sim.ATTACK_MIX
    return raw


def reannounced() -> dict:
    """Two injectors each announce the starts 100, 200, 300 and 400, the second
    20 minutes after the first, so under a short TTL a start outlives the
    sybil keys put on it at first sight by 20 minutes and they are put again."""
    return fleet_scenario(adversaries=[
        {"strategy": "separation", "injection_period": 100, "lead_minutes": 100},
        {"strategy": "separation", "injection_period": 20, "lead_minutes": 80},
        {"strategy": "mitm_forwarder", "rewrite_issuer": False},
        {"strategy": "sybil_flood", "identity_count": 12},
    ])


def interleaved() -> dict:
    """An injector between two adversaries that take the announced campaigns,
    so that in its minutes the second one must see the starts it announced."""
    return fleet_scenario(adversaries=[
        {"strategy": "sybil_flood", "identity_count": 12},
        {"strategy": "separation", "injection_period": 20, "lead_minutes": 80},
        {"strategy": "mitm_forwarder", "rewrite_issuer": False},
    ])


SHAPES = {
    "attack_mix": attack_mix,
    "reannounced": reannounced,
    "interleaved": interleaved,
    **{name: functools.partial(corpus.generate, name) for name in (
        "mitm_rewrite", "mitm_plain", "sybil_and_mitm_plain", "time_portal_and_sybil",
        "expired_reput",
    )},
}


def _ndjson(shape: str, ttl: int | None) -> str:
    sim = Simulation(from_dict(SHAPES[shape]()))
    if ttl is not None:
        sim.dht.ttl_minutes = ttl
    return sim.run().to_ndjson()


@pytest.mark.parametrize("shape, ttl", [
    *((shape, None) for shape in SHAPES if shape != "reannounced"),
    ("attack_mix", 37), ("reannounced", 37), ("reannounced", 60),
])
def test_adversaries_write_what_full_reads_write(monkeypatch, shape, ttl):
    # each adversary reads a roster only when it acts on it; reading every
    # roster every minute, as these subclasses do, must write the same bytes
    lazy = _ndjson(shape, ttl)
    monkeypatch.setitem(_ADVERSARY_CLASSES, "mitm_forwarder", _FullReadMitm)
    monkeypatch.setitem(_ADVERSARY_CLASSES, "sybil_flood", _FullReadSybil)
    assert _ndjson(shape, ttl) == lazy


@pytest.mark.parametrize("shape, ttl", [
    *((shape, None) for shape in SHAPES),
    ("attack_mix", 37), ("reannounced", 37), ("reannounced", 60), ("interleaved", 37),
])
def test_the_shared_view_of_announced_campaigns_is_a_fresh_read(monkeypatch, shape, ttl):
    # the view is read once a minute and shared; whenever an adversary takes
    # it, it must equal the campaign tables as they stand
    shared = Simulation.announced_campaigns
    seen = []

    def checked(sim, now):
        view = shared(sim, now)
        assert view == _fresh_announced(sim, now), now
        seen.append(view)
        return view

    monkeypatch.setattr(Simulation, "announced_campaigns", checked)
    _ndjson(shape, ttl)
    assert any(seen)


@pytest.mark.parametrize("ttl", [None, 37])
def test_adversaries_share_one_view_until_the_campaign_tables_can_change(monkeypatch, ttl):
    shared, inject = Simulation.announced_campaigns, _StartInjector.step
    built, taken = [], []  # (minute, view) for each view built and each one taken

    def counted(sim, now):
        fresh = sim.announced is None
        view = shared(sim, now)
        if not fresh:
            assert view is built[-1][1], now
        (built if fresh else taken).append((now, view))
        return view

    def injecting(self, sim, now):
        before = sim.announced
        inject(self, sim, now)
        assert sim.announced is (None if now % self.period == 0 else before)

    monkeypatch.setattr(Simulation, "announced_campaigns", counted)
    monkeypatch.setattr(_StartInjector, "step", injecting)
    sim = Simulation(from_dict(interleaved()))
    if ttl is not None:
        sim.dht.ttl_minutes = ttl
    sim.run()
    # the sybil builds the view at minute 0, in the minute after a spam
    # minute, and in every minute once a start can have expired; the
    # forwarder builds it again after the separation adversary announces,
    # every 20 minutes; every other take shares the last view built
    spam = {injection.minute for injection in sim.scenario.spam_injections}
    minutes = range(sim.scenario.duration)
    by_sybil = [now for now in minutes if now == 0 or now - 1 in spam or now > sim.dht.ttl_minutes]
    assert [now for now, _view in built] == sorted([*by_sybil, *minutes[::20]])
    assert len(built) + len(taken) == 2 * len(minutes)
    if ttl is None:  # the run is shorter than the TTL
        assert len(built) == 2 + 20


def _roster_calls_in_step(monkeypatch, cls, verb="get") -> list[tuple[int, bytes, object]]:
    """Every roster `get` or `put` made inside `cls.step`: (minute, DHT key,
    the values read or the value put).

    A roster is any key but a campaign table or the adversary's own inbox.
    """
    calls, inside = [], []
    step, call = cls.step, getattr(dht.SimulatedDht, verb)

    def stepping(self, sim, now):
        inside.append(self)
        step(self, sim, now)
        inside.pop()

    def calling(store, key, *args):  # get(key, now) or put(key, value, now)
        result = call(store, key, *args)
        if inside and key.key not in (
            dht.campaign_table_key(URL).key, dht.inbox_key(inside[-1].identity.public_key).key,
        ):
            calls.append((args[-1], key.key, result if verb == "get" else args[0]))
        return result

    monkeypatch.setattr(cls, "step", stepping)
    monkeypatch.setattr(dht.SimulatedDht, verb, calling)
    return calls


def test_forwarder_reads_rosters_only_in_minutes_its_inbox_holds_a_challenge(monkeypatch):
    reads = _roster_calls_in_step(monkeypatch, _MitmForwarderAdversary)
    sim = Simulation(from_dict(attack_mix()))
    (forwarder,) = [a for a in sim.adversaries if isinstance(a, _MitmForwarderAdversary)]
    challenged = set()
    poll_inbox = coordinator.poll_inbox

    def polled(now, store, identity):
        messages = poll_inbox(now, store, identity)
        if identity is forwarder.identity and any(
            isinstance(m, crypto.Challenge) for m in messages
        ):
            challenged.add(now)
        return messages

    monkeypatch.setattr(coordinator, "poll_inbox", polled)
    sim.run()
    assert challenged and {now for now, _key, _values in reads} == challenged
    # each roster at most once a minute, and only after registering on it
    assert len(reads) == len({(now, key) for now, key, _values in reads})
    assert all(forwarder.identity.public_key in values for _now, _key, values in reads)


@pytest.mark.parametrize("ttl", [None, 37, 60])
def test_sybil_puts_on_a_roster_on_first_sight_then_once_per_ttl(monkeypatch, ttl):
    reads = _roster_calls_in_step(monkeypatch, _SybilFloodAdversary)
    puts = _roster_calls_in_step(monkeypatch, _SybilFloodAdversary, "put")
    sim = Simulation(from_dict(reannounced()))
    if ttl is not None:
        sim.dht.ttl_minutes = ttl
    report = sim.run()
    by_roster = defaultdict(lambda: defaultdict(list))  # roster -> minute -> keys put
    for now, key, pk in puts:
        by_roster[key][now].append(pk)
    (sybil,) = [a for a in sim.adversaries if isinstance(a, _SybilFloodAdversary)]
    for visits in by_roster.values():
        minutes = list(visits)
        assert all(later > earlier + sim.dht.ttl_minutes
                   for earlier, later in zip(minutes, minutes[1:]))
        assert all(keys == sybil.sybil_keys for keys in visits.values())
    # the short TTLs visit some roster again, and no visit reads one
    assert any(len(visits) > 1 for visits in by_roster.values()) == (ttl is not None)
    assert reads == []
    (counters,) = [a for a in report.summary["adversaries"] if a["strategy"] == "sybil_flood"]
    assert counters["counters"]["registered"] == len(puts)


def _register_every_minute(self, sim, now, pk):
    """The registration of the forwarder and the flood as a put on every
    announced roster every minute."""
    campaigns = _fresh_announced(sim, now)
    for campaign in campaigns:
        coordinator.register(sim.dht, campaign, pk, now)
    return campaigns


@pytest.mark.parametrize("shape, ttl", [
    *((shape, ttl) for shape in ("attack_mix", "mitm_rewrite", "sybil_and_mitm_plain")
      for ttl in (None, 37, 60)),
    ("reannounced", 37), ("reannounced", 60),
])
def test_registration_writes_what_a_put_every_minute_writes(monkeypatch, shape, ttl):
    # the short TTLs make the runs outlast a put, so some rosters are put
    # again; the default one makes the first put on each roster last
    # digests: a diff of two long streams would take minutes to print
    lazy = hashlib.sha256(_ndjson(shape, ttl).encode()).hexdigest()
    monkeypatch.setattr(_Adversary, "_register_everywhere", _register_every_minute)
    assert hashlib.sha256(_ndjson(shape, ttl).encode()).hexdigest() == lazy


@pytest.mark.parametrize("ttl", [None, 37])
def test_forwarder_and_flood_put_a_roster_again_only_until_a_put_lasts(monkeypatch, ttl):
    puts = {cls: _roster_calls_in_step(monkeypatch, cls, "put")
            for cls in (_MitmForwarderAdversary, _ChallengeFloodAdversary)}
    sim = Simulation(from_dict(attack_mix()))
    if ttl is not None:
        sim.dht.ttl_minutes = ttl
    sim.run()
    lasting = sim.scenario.duration - 1 - sim.dht.ttl_minutes
    for cls, calls in puts.items():
        (adversary,) = [a for a in sim.adversaries if isinstance(a, cls)]
        by_roster = defaultdict(list)  # roster -> minutes of the key's puts
        for now, key, value in calls:
            if value == adversary.identity.public_key:  # not a forwarded challenge
                by_roster[key].append(now)
        assert by_roster
        for minutes in by_roster.values():
            assert [m for m in minutes[:-1] if m >= lasting] == []
            # and until then every minute the start is announced, shared view or not
            assert minutes == list(range(minutes[0], minutes[-1] + 1))
        if ttl is None:  # the run is shorter than the TTL: one put per roster
            assert sum(map(len, by_roster.values())) == len(by_roster) == 10
        else:
            assert any(len(minutes) > 1 for minutes in by_roster.values())
