"""Golden digests: the NDJSON of every bundled scenario at its own seed, and
the normalized form that `optoutswarm validate` prints for it. One edge
scenario under tests/ is pinned beside them: two client groups whose
`max_rand` differ, so a challenge from the wider group can have its answer
beyond the narrower solver's range (281 `no_solution` drops). So is every
scenario of the generated corpus in tests/corpus.py, which between them emit
every event type and every drop reason.

The same runs gate the stream's lines. The simulation hands its sink one
NDJSON line per event: the handshake's events are joined from fixed
fragments at their emit sites, every other event and the summary by
`ndjson_line`. Every line must be the generic encoder's bytes for the
record it parses to.

A change that moves any of these bytes changes what the simulator computes,
or what a scenario file means. Such a change must update the digest here and
say in CHANGES.md which bytes moved and why.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import corpus
from optoutswarm import crypto, trust
from optoutswarm.cli import main
from optoutswarm.dht import inbox_key
from optoutswarm.scenario import Scenario, from_dict, load_file
from optoutswarm.simulation import _ENCODER, MetricsReport, Simulation, run

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
EDGE = ROOT / "tests" / "edge_mixed_max_rand.json"
EDGE_DIGEST = "eeaa18c36b7acdf6b8b15567f3e62bbdd91ed7ff102e467b69b21e5e15e0f5e4"

GOLDEN = {
    "baseline.json": "9df61019bedeadaede8b9f5152de489119bdbe4a0b45884ff5d6d6842ef5c9d3",
    "challenge_flood.json": "0b39c92d625f15621cd3935cf84bf0bdde35e1b3b0a7d65391f87afad5e4db31",
    "mitm_forwarder.json": "9d74ac0be8ce29cc1d54e247b5efb50927979fbb97df6f6c2ff42ffb391d5741",
    "separation.json": "fea8680ca05d6acc7df6431c39bd3b6b15decb978ef8612fac2f0de7ea917843",
    "sybil_flood.json": "83952085876048c1dec1cea48efe2c538e46f74dd71796b029eb287c5a5b65cf",
    "time_portal.json": "a656276f83e6ec0b9585f047bb940204e77341b35f469cfe819074f4899c3e69",
}

# sha256 of `optoutswarm validate` standard output for each bundled scenario
NORMALIZED = {
    "baseline.json": "29ba0a3ff3b84543fd0419b8331a1c5498d706104edac30adc957ca4f92ada78",
    "challenge_flood.json": "f2d8a0df316f573fbec552e95c3a7a9cd2a573c2248787bd2bd956f11c5e77f1",
    "mitm_forwarder.json": "c137d723939a37559c75e80d62ac54bbf9d11b45ceb9a224df03e952fa5d08bf",
    "separation.json": "b54d66cf3692a8daf46044f94eb362708f952811d73aa01474e66b3f06cb83d7",
    "sybil_flood.json": "8e8365eacf005a2e6ec0675f97349b3c53907153b27bfa65c5272f058812fb89",
    "time_portal.json": "d1c5beab3383c3dec540391e9b665ee3437ca8825b7336b39798f7afc67bc9d4",
}


def test_every_bundled_scenario_is_pinned():
    assert sorted(p.name for p in SCENARIOS.glob("*.json")) == sorted(GOLDEN)
    assert sorted(NORMALIZED) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(NORMALIZED))
def test_bundled_scenario_normalized_form_digest(name, capsys):
    assert main(["validate", str(SCENARIOS / name)]) == 0
    assert _digest(capsys.readouterr().out) == NORMALIZED[name]


@functools.cache
def _file_report(path: Path) -> MetricsReport:
    return run(load_file(str(path)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_ndjson_digest(name):
    assert _digest(_file_report(SCENARIOS / name).to_ndjson()) == GOLDEN[name]


def test_edge_scenario_ndjson_digest():
    assert _digest(_file_report(EDGE).to_ndjson()) == EDGE_DIGEST


EVENT_KINDS = {
    "no_feasible_start", "campaign_proposed", "campaign_joined", "challenge_sent",
    "challenge_answered", "dropped_not_comrade", "dropped_budget", "dropped_no_solution",
    "verification", "launch_decision", "outcome_judged", "outcome_unjudged", "trust_reset",
    "site_minute",
}


def _events(report: MetricsReport) -> list[dict]:
    return [json.loads(line) for line in report.events]


def _kind(event: dict) -> str:
    if event["type"] == "challenge_dropped":
        return f"dropped_{event['reason']}"
    return event["type"]


@functools.cache
def _corpus_report(name: str) -> MetricsReport:
    return run(from_dict(corpus.generate(name)))


def test_every_corpus_variant_is_pinned():
    assert sorted(corpus.PINNED) == sorted(corpus.VARIANTS)


@pytest.mark.parametrize("name", sorted(corpus.PINNED))
def test_corpus_ndjson_digest(name):
    assert _digest(_corpus_report(name).to_ndjson()) == corpus.PINNED[name]


def test_corpus_emits_every_event_type_and_drop_reason():
    kinds = {_kind(e) for name in corpus.VARIANTS for e in _events(_corpus_report(name))}
    assert kinds == EVENT_KINDS


EVERY_RUN = [*sorted(GOLDEN), EDGE.name, *(f"corpus:{name}" for name in corpus.VARIANTS)]


def _report(name: str) -> MetricsReport:
    """The run of a bundled scenario, the edge scenario or a `corpus:` variant."""
    if name.startswith("corpus:"):
        return _corpus_report(name.removeprefix("corpus:"))
    return _file_report(EDGE if name == EDGE.name else SCENARIOS / name)


def _scenario(name: str) -> Scenario:
    """The scenario `_report(name)` runs."""
    if name.startswith("corpus:"):
        return from_dict(corpus.generate(name.removeprefix("corpus:")))
    return load_file(str(EDGE if name == EDGE.name else SCENARIOS / name))


@pytest.mark.parametrize("name", EVERY_RUN)
def test_templated_lines_equal_the_generic_encoder(name):
    # the handshake's lines are joined from fixed fragments, not encoded
    for line in _report(name).to_ndjson().splitlines(keepends=True):
        assert line == _ENCODER.encode(json.loads(line)) + "\n", line


@pytest.mark.parametrize("name", EVERY_RUN)
def test_events_add_up_to_the_summary(name):
    report = _report(name)
    counts = Counter()
    work = Counter()
    launches = Counter()
    joined = set()
    for event in _events(report):
        kind = _kind(event)
        counts[kind, event.get("client")] += 1
        if kind == "challenge_answered":
            work[event["client"]] += event["work"]
        if kind == "launch_decision" and event["launched"]:
            launches[event["url"], event["start"]] += 1
        if kind == "campaign_joined":
            joined.add((event["url"], event["start"]))
    # a solve that finds nothing has scanned the solver's whole range
    max_rands = [g.trust.max_rand for g in _scenario(name).clients for _ in range(g.count)]
    for client in report.summary["clients"]:
        i = client["index"]
        assert client["hash_evaluations"] == (
            work[i] + counts["dropped_no_solution", i] * (max_rands[i] + 1)
        )
        assert client["challenges_sent"] == counts["challenge_sent", i]
        assert client["challenges_answered"] == counts["challenge_answered", i]
        assert client["solve_attempts"] == (
            counts["challenge_answered", i] + counts["dropped_no_solution", i]
        )
        assert client["trust_resets"] == counts["trust_reset", i]
    campaigns = {(c["url"], c["start"]): c for c in report.summary["campaigns"]}
    assert joined <= campaigns.keys()
    for key, campaign in campaigns.items():
        assert campaign["launched_by"] == launches[key]
    totals = report.summary["totals"]
    assert totals["campaigns_launched"] == len(launches)
    assert totals["launch_decisions_true"] == launches.total()
    assert totals["hash_evaluations"] == sum(
        c["hash_evaluations"] for c in report.summary["clients"]
    )


@pytest.mark.parametrize("name", EVERY_RUN)
def test_bursts_add_up_to_the_site_traffic(name):
    # every launched (client, campaign) on a site adds `opt_out_rate` requests
    # to each minute of [start, start + campaign_duration), and nothing else does
    scenario, events = _scenario(name), _events(_report(name))
    launched = Counter(
        (e["url"], e["start"]) for e in events
        if e["type"] == "launch_decision" and e["launched"]
    )
    sent = {(e["url"], e["t"]): e["opt_out_requests"]
            for e in events if e["type"] == "site_minute"}
    for site in scenario.target_sites:
        for now in range(scenario.duration):
            pairs = sum(
                n for (url, start), n in launched.items()
                if url == site.url and start <= now < start + scenario.campaign_duration
            )
            assert sent.get((site.url, now), 0) == scenario.opt_out_rate * pairs, (site.url, now)


@pytest.fixture()
def wire_mode(monkeypatch) -> Counter:
    """Every message crosses the wire: each inbox, read or not, gets the seal
    of the record's payload bytes, which its reader opens and decodes; every
    fresh challenge's record is built as `trust.post_challenge` builds it and
    sealed, even one nobody will read, so its target is hashed; and every
    solve scans, since a decoded challenge carries no answer. Counts the
    messages by type, and the sealed challenges to an inbox nobody polls as
    "unread"."""
    sent = Counter()

    def post(dht, recipient, message, now):
        challenge = isinstance(message, crypto.Challenge)
        sent["Challenge" if challenge else type(message).__name__] += 1
        readers = dht.inbox_readers
        if challenge and readers is not None and recipient not in readers:
            sent["unread"] += 1
        dht.put(inbox_key(recipient), crypto.seal(recipient, bytes(message)), now)

    def post_challenge(dht, issuer, recipient, max_rand, rng, now):
        rand1, rand2 = crypto.draw_challenge(max_rand, rng)
        post(dht, recipient, crypto.DrawnChallenge(issuer.public_key, rand1, None, rand2), now)
        return rand2

    monkeypatch.setattr(trust, "post", post)
    monkeypatch.setattr(trust, "post_challenge", post_challenge)
    return sent


@pytest.mark.parametrize("name", [*sorted(GOLDEN), EDGE.name])
def test_wire_mode_writes_the_pinned_bytes(name, wire_mode):
    # records in the inbox, mail kept only for readers, challenges to other
    # inboxes drawn, not built, and the carried answer change how a run
    # computes, never what: the protocol on the wire must write the same
    # bytes (a differential check against the shortcuts)
    path, digest = (EDGE, EDGE_DIGEST) if name == EDGE.name else (SCENARIOS / name, GOLDEN[name])
    assert _digest(run(load_file(str(path))).to_ndjson()) == digest
    assert wire_mode["Challenge"] and wire_mode["ChallengeSolution"]
    if name == "sybil_flood.json":  # honest clients challenge the sybil keys
        assert wire_mode["unread"]


def _forwarders(max_rand: int, *rewrite_issuer: bool) -> dict:
    """mitm_forwarder.json with one forwarder per `rewrite_issuer` flag, and
    every client group's `max_rand` set to `max_rand`."""
    raw = json.loads((SCENARIOS / "mitm_forwarder.json").read_text(encoding="utf-8"))
    raw["adversaries"] = [
        {"strategy": "mitm_forwarder", "rewrite_issuer": rewrite} for rewrite in rewrite_issuer
    ]
    for group in raw["clients"]:
        group["trust"]["max_rand"] = max_rand
    return raw


# sha256 of `_forwarders(10**6, True)`'s NDJSON, as written when each victim
# scanned every rewritten copy: 528 scans of 10**6 + 1 values, 43 s of CPU
REWRITING_DIGEST = "51467cfd73a81d5d81d7a7e43b4298d1a65300f03c9a621d4a368afdac105e06"


def test_a_rewritten_copy_is_refused_without_a_scan():
    started = time.process_time()
    report = run(from_dict(_forwarders(10**6, True)))
    assert _digest(report.to_ndjson()) == REWRITING_DIGEST
    assert time.process_time() - started < 1


@pytest.mark.parametrize(
    "rewrite_issuer", [(True,), (True, False, True)], ids=["rewriting", "relaying_copies"]
)
def test_wire_mode_refuses_a_rewritten_copy_as_the_kernel_does(rewrite_issuer, request):
    # in process a victim refuses a rewritten copy by the original it keeps;
    # on the wire the copy decodes to a plain challenge, which the kernel
    # scans. Behind a plain forwarder, a rewriting one also copies copies
    in_process = run(from_dict(_forwarders(200, *rewrite_issuer))).to_ndjson()
    assert '"reason":"no_solution"' in in_process
    request.getfixturevalue("wire_mode")
    assert run(from_dict(_forwarders(200, *rewrite_issuer))).to_ndjson() == in_process


def test_rejoin_variant_joins_campaigns_already_held():
    # its pin guards against doubled probes, ticks and bursts only if it re-joins
    report = _corpus_report("rejoin")
    joins = Counter(
        (e["client"], e["url"], e["start"])
        for e in _events(report) if e["type"] == "campaign_joined"
    )
    assert joins and set(joins.values()) == {2}


def test_long_campaign_variant_overlaps_and_stops_at_the_end():
    # its pin guards the bursts of concurrent campaigns only if two starts on
    # one site overlap; campaigns that outlast the run write no minute past it
    scenario = from_dict(corpus.generate("long_campaign"))
    sim = Simulation(scenario)
    report = sim.run()
    starts: dict[str, set[int]] = {}
    for e in _events(report):
        if e["type"] == "launch_decision" and e["launched"]:
            starts.setdefault(e["url"], set()).add(e["start"])
    assert any(
        len(s) >= 2 and max(s) < min(s) + scenario.campaign_duration for s in starts.values()
    )
    for _site, ledger in sim.sites.values():
        assert ledger.minutes == {}


def _digest(ndjson: str) -> str:
    return hashlib.sha256(ndjson.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_live_simulations_do_not_interfere(name):
    # Both fleets hold the same keys; no state kept outside a `Simulation`
    # may carry from one run into the other.
    scenario = load_file(str(SCENARIOS / name))
    first, second = Simulation(scenario), Simulation(scenario)
    assert _digest(first.run().to_ndjson()) == GOLDEN[name]
    assert _digest(second.run().to_ndjson()) == GOLDEN[name]


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_runs_write_the_pinned_bytes_under_any_hash_seed(tmp_path, hash_seed):
    # DHT values, campaigns and sealed records hash by their contents, whose
    # hashes vary with PYTHONHASHSEED; no output may depend on that order
    pinned = {**{SCENARIOS / name: digest for name, digest in GOLDEN.items()},
              EDGE: EDGE_DIGEST}
    code = (
        "import contextlib, hashlib, io, sys\n"
        "from optoutswarm.cli import main\n"
        "for path in sys.argv[2:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(['run', path, '--out', sys.argv[1]]) == 0\n"
        "    with open(sys.argv[1], 'rb') as f:\n"
        "        print(hashlib.sha256(f.read()).hexdigest())\n"
    )
    out = tmp_path / "run.ndjson"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, "-c", code, str(out), *map(str, pinned)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == list(pinned.values())


def test_benchmark_trace_hooks_still_attach(tmp_path):
    # perfbench/spans.py wraps the entry points of every layer by name. A
    # refactor that drops or renames one breaks the traced benchmark, so a
    # traced run of the baseline must still exit 0 with its pinned bytes.
    out = tmp_path / "baseline.ndjson"
    argv = ["run", str(SCENARIOS / "baseline.json"), "--out", str(out)]
    code = (
        "import sys\n"
        "import spans\n"
        "from optoutswarm import cli\n"
        "spans.install(spans.Tracer())\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")  # writes nothing under perfbench/
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["baseline.json"]
