"""A generated golden corpus: small scenarios that reach what the bundled six do not.

The bundled scenarios all use one client group, `poll_interval` 10,
`probe_count` 5 and `join_all`, and between them never emit
`no_feasible_start`, `outcome_unjudged`, `trust_reset` or a `not_comrade`
drop. Each corpus variant below starts from one scenario (`BASE`, one
client group, one site, spam to every client early in the run, 240 minutes)
and changes one or two things: a poll interval and probe count, a join
policy, several client groups, sites or injections, a confirm policy, usage
windows with no feasible start, an answer budget of zero, one adversary or a
pair of them, the same mail twice so that clients join a campaign they
already hold (`rejoin`), campaigns that outlast the run and overlap on one
site (`long_campaign`). Three variants pin what a schedule of due peers must get
right: answers that come back wrong and free a peer at once
(`stale_answer`), and two runs of 11,700 minutes, past the DHT's TTL, in
which roster entries expire (`roster_expiry`) and expired ones are put
again at the end of their roster (`expired_reput`). One pins that the
adversaries' shared view of the announced starts is read afresh after an
injector announces one (`interleaved_spam`). One pins that a client answers a
comrade it shares only its later campaign with (`second_roster`). Run it with
`pytest tests/test_golden.py -k corpus`.

`generate(name)` draws the fleet size, seed and spam minute from a private
`Random(f"corpus:{name}")`, so a variant never moves when another is added. `PINNED` holds the sha256 of each variant's NDJSON; the simulator
is deterministic in the scenario alone, so a moved digest means the
simulator now computes something else.
"""

from __future__ import annotations

import copy
from random import Random
from typing import Callable

BASE = {
    "duration": 240,
    "redirect_map": {},
    "whitelist": ["mail.example"],
    "adversaries": [],
    "opt_out_rate": 12,
    "campaign_duration": 30,
}

CONFIG = {
    "min_wait": 30,
    "max_wait": 120,
    "min_comrades": 3,
    "min_accumulated_trust": 0,
    "usage_windows": [[0, 10080]],
    "join_policy": "join_all",
    "poll_interval": 10,
    "max_challenges_answered": 60,
    "launch_grace": 5,
}

TRUST = {"alpha": 2.0, "max_rand": 200, "rechallenge_timeout": 120, "probe_count": 5}

FOOTER = "Delivered by mail.example - unsubscribe at https://mail.example/optout"


def site(host: str) -> dict:
    return {
        "url": f"http://{host}/buy",
        "base_latency": 100,
        "capacity": 120,
        "timeout": 5000,
        "request_bytes": 2048,
        "cost_per_gib": 0.05,
        "visitor_rate": 10,
        "revenue_per_visit": 1.5,
        "patience": 200,
    }


def group(count: int, trust: dict | None = None, **config) -> dict:
    return {
        "count": count,
        "config": {**CONFIG, **config},
        "trust": {**TRUST, **(trust or {})},
    }


def spam(minute: int, clients, *hosts: str) -> dict:
    links = " and ".join(f"http://{host}/buy?uid={minute}" for host in hosts)
    return {
        "minute": minute,
        "clients": clients,
        "body": f"Cheap meds now! Order at {links} while stock lasts.",
        "footer_hint": FOOTER,
    }


Edit = Callable[[dict], None]
VARIANTS: dict[str, Edit] = {}


def variant(name: str) -> Callable[[Edit], Edit]:
    def add(edit: Edit) -> Edit:
        VARIANTS[name] = edit
        return edit

    return add


def _cadence(poll_interval: int, probe_count: int) -> Edit:
    def edit(s: dict) -> None:
        s["clients"][0]["config"]["poll_interval"] = poll_interval
        s["clients"][0]["trust"]["probe_count"] = probe_count

    return edit


for _poll, _probes in ((1, 1), (3, 2), (7, 7), (60, 30)):
    variant(f"poll_{_poll}_probe_{_probes}")(_cadence(_poll, _probes))


def _adversaries(*specs: dict) -> Edit:
    def edit(s: dict) -> None:
        s["adversaries"] = [copy.deepcopy(spec) for spec in specs]

    return edit


TIME_PORTAL = {"strategy": "time_portal", "offset_minutes": 20000, "injection_period": 30}
SEPARATION = {"strategy": "separation", "injection_period": 20, "lead_minutes": 40}
FLOOD = {"strategy": "challenge_flood", "victim": 0, "count": 90, "at_minute": 40,
         "max_rand": 10_000}
MITM = {"strategy": "mitm_forwarder", "rewrite_issuer": True}
MITM_PLAIN = {"strategy": "mitm_forwarder", "rewrite_issuer": False}
SYBIL = {"strategy": "sybil_flood", "identity_count": 12}

for _name, _specs in (
    ("time_portal", (TIME_PORTAL,)),
    ("separation", (SEPARATION,)),
    ("challenge_flood", (FLOOD,)),
    ("mitm_rewrite", (MITM,)),
    ("mitm_plain", (MITM_PLAIN,)),
    ("sybil_flood", (SYBIL,)),
    ("sybil_and_mitm_plain", (SYBIL, MITM_PLAIN)),
    ("flood_and_separation", (FLOOD, SEPARATION)),
    ("time_portal_and_sybil", (TIME_PORTAL, SYBIL)),
):
    variant(_name)(_adversaries(*_specs))


@variant("highest_trust_under_separation")
def _(s: dict) -> None:
    # injected starts give each client several suitable starts to choose from
    s["clients"][0]["config"]["join_policy"] = "highest_trust"
    s["adversaries"] = [dict(SEPARATION, injection_period=10)]
    s["spam_injections"].append(spam(70, "all", "pills.example"))


@variant("three_groups")
def _(s: dict) -> None:
    count = s["clients"][0]["count"]
    s["clients"] = [
        group(count, poll_interval=3),
        group(4, {"probe_count": 2, "max_rand": 1000}, min_wait=40, join_policy="highest_trust"),
        group(3, {"rechallenge_timeout": 30}, poll_interval=7, max_challenges_answered=2),
    ]


@variant("three_sites")
def _(s: dict) -> None:
    hosts = ("pills.example", "watches.example", "loans.example")
    s["target_sites"] = [site(host) for host in hosts]
    s["spam_injections"] = [
        spam(s["spam_injections"][0]["minute"], "all", *hosts),
        spam(50, [0, 1], hosts[1]),
    ]


@variant("redirect_and_whitelist")
def _(s: dict) -> None:
    s["redirect_map"] = {"http://t.example/1": "http://pills.example/buy"}
    count = s["clients"][0]["count"]
    s["spam_injections"] = [
        {"minute": 4, "clients": list(range(0, count, 2)),
         "body": "Click http://t.example/1 now", "footer_hint": FOOTER},
        {"minute": 9, "clients": list(range(1, count, 2)),
         "body": "Unsubscribe at http://mail.example/optout or buy at http://pills.example/buy"},
        {"minute": 12, "clients": "all", "body": "Only http://mail.example/news today"},
    ]


@variant("reject_all")
def _(s: dict) -> None:
    s["confirm_policy"] = "reject_all"


@variant("no_feasible_start")
def _(s: dict) -> None:
    # online only in the first ten minutes of the week: no start fits the wait bounds
    s["clients"][0]["config"]["usage_windows"] = [[0, 10]]


@variant("budget_zero")
def _(s: dict) -> None:
    s["clients"][0]["config"]["max_challenges_answered"] = 0


@variant("start_tie")
def _(s: dict) -> None:
    # three URLs drawn from a two-minute window at once: two must share a start,
    # and the mail names them out of URL order
    hosts = ("c.example", "a.example", "b.example")
    s["target_sites"] = [site(host) for host in hosts]
    s["clients"][0]["config"].update(min_wait=30, max_wait=31)
    s["spam_injections"] = [spam(s["spam_injections"][0]["minute"], "all", *hosts)]


@variant("not_comrade")
def _(s: dict) -> None:
    # two disjoint fleets on two sites; relayed challenges name the other fleet's issuer
    s["clients"] = [group(6), group(6)]
    s["target_sites"] = [site("pills.example"), site("watches.example")]
    s["spam_injections"] = [
        spam(5, list(range(6)), "pills.example"),
        spam(6, list(range(6, 12)), "watches.example"),
    ]
    s["adversaries"] = [dict(MITM_PLAIN)]


@variant("trust_reset")
def _(s: dict) -> None:
    # nobody can launch, so each judged campaign fails and one failure resets
    s["clients"][0]["config"]["min_comrades"] = 50
    s["clients"][0]["trust"]["failures_before_reset"] = 1
    s["spam_injections"].append(spam(100, "all", "pills.example"))


@variant("late_join_unjudged")
def _(s: dict) -> None:
    # starts come sooner than the 30-minute baseline window, so it is missed
    s["clients"][0]["config"].update(min_wait=10, max_wait=20)


@variant("mixed_max_rand")
def _(s: dict) -> None:
    s["clients"] = [group(5), group(5, {"max_rand": 10_000})]
    s["spam_injections"] = [spam(3, "all", "pills.example")]


@variant("stale_answer")
def _(s: dict) -> None:
    # the first group re-challenges after 15 minutes and the second polls every
    # 30, so answers to superseded challenges come back wrong and free the peer
    count = s["clients"][0]["count"]
    s["clients"] = [group(count, {"rechallenge_timeout": 15}), group(5, poll_interval=30)]


@variant("rejoin")
def _(s: dict) -> None:
    # the same mail again 10 minutes later, before the baseline probes: every
    # client still finds the start suitable, so it joins a campaign it already
    # holds, which must not probe, tick or burst twice
    first = s["spam_injections"][0]["minute"]
    s["spam_injections"].append(spam(first + 10, "all", "pills.example"))


@variant("long_campaign")
def _(s: dict) -> None:
    # campaigns outlast the run; the second group waits too long to reach the
    # first group's start, so two starts on one site burst at once to the end
    s["campaign_duration"] = 1_000_000
    s["clients"].append(group(6, min_wait=150, max_wait=200))


@variant("roster_expiry")
def _(s: dict) -> None:
    # past the DHT TTL: the rosters' entries expire near minute 11,525 and are
    # never put again, so the unanswered challenges stop a round before
    s["clients"][0]["config"]["max_challenges_answered"] = 0
    s["adversaries"] = [dict(SYBIL)]
    s["duration"] = 11_700


@variant("expired_reput")
def _(s: dict) -> None:
    # the second injector announces the first one's start again at minute 3,000,
    # so that start outlives the sybils' entries on its roster: they expire at
    # minute 11,521 and are put afresh at the end. Every client joins both
    # injected starts, so each peer is on two rosters.
    s["clients"][0]["config"]["max_wait"] = 10_080
    s["duration"] = 11_700
    s["adversaries"] = [
        dict(SEPARATION, injection_period=20_000, lead_minutes=6_000),
        dict(SEPARATION, injection_period=3_000, lead_minutes=3_000),
        dict(SYBIL),
    ]


@variant("interleaved_spam")
def _(s: dict) -> None:
    # the sybil reads the announced starts before the injector adds one in the
    # same minute and the forwarder after it. The spam comes at two injection
    # minutes, which are poll minutes too: clients first join an injected start
    # in the minute it is announced and read its roster, where the forwarder
    # must already be, so it must not act on the view the sybil took
    s["adversaries"] = [dict(SYBIL), dict(SEPARATION), dict(MITM_PLAIN)]
    s["spam_injections"] = [spam(minute, "all", "pills.example") for minute in (20, 40)]


@variant("second_roster")
def _(s: dict) -> None:
    # client 0 holds two campaigns, the earlier with clients 1-5 and the later
    # with clients 6-11, who challenge it: its comrade test must read every
    # roster it joined, not only the first
    s["clients"] = [group(12, min_wait=30, max_wait=31)]
    s["target_sites"] = [site("pills.example"), site("watches.example")]
    s["spam_injections"] = [
        spam(5, list(range(6)), "pills.example"),
        spam(10, [0, *range(6, 12)], "watches.example"),
    ]


def generate(name: str) -> dict:
    """The scenario of corpus variant `name`."""
    rng = Random(f"corpus:{name}")
    scenario = copy.deepcopy(BASE)
    scenario["seed"] = rng.randrange(1 << 16)
    scenario["clients"] = [group(rng.randint(6, 12))]
    scenario["target_sites"] = [site("pills.example")]
    scenario["spam_injections"] = [spam(rng.randint(2, 8), "all", "pills.example")]
    VARIANTS[name](scenario)
    return scenario


# sha256 of the NDJSON each variant writes
PINNED = {
    "poll_1_probe_1": "1cd2dae98a155b6c14f018c8528ccf62f7229536fb0cbb2d6c8ba334ffa11943",
    "poll_3_probe_2": "db1f897295054ae050f30d6cdb4637701a4e1ffbc0801810fe8b4565af2bfda8",
    "poll_7_probe_7": "bfbd3aefb52766dd8fb51bb70bc915adeb2ee9ac0e013d04ec14839a9d6e7b61",
    "poll_60_probe_30": "515673ed0bd97285d567d29a26570ed8197a542911352465e24135dee940464a",
    "time_portal": "f81ab2c8054b08d8d03d6235b1a8535eb73a6a786eb180f2722a22a9c3fcc7c5",
    "separation": "002b18b8ad1d4285b0f3b0128ae0427efd81c0f2bb0e8f3ef50dee76237996ce",
    "challenge_flood": "73102080f604347733934676246b067eaa30aff3b616464c3bbd1e42a8dfcfab",
    "mitm_rewrite": "f12308f8ed71ca403238c913d9a27e2575a644b0f26f3fc6dd71066917fc2bcb",
    "mitm_plain": "926b4d82ca001deefd71d8440aed6797587f43119033a6d3628931d33160772d",
    "sybil_flood": "4c2c85951df3622d049952a8d4eddfaa195f0370806d5167c56d54c126af216d",
    "sybil_and_mitm_plain": "7c4788b43467c9609cf0f21890d97b6973d81bd1a8f3879cf9746d2818cec28d",
    "flood_and_separation": "2c25b369156d792c11c10e16a752657e8768e364e52f63dffd8687847b3ea528",
    "time_portal_and_sybil": "653429e16ab2d6f45c0f35486d53b61b73de5b1b3d5834974308af5d0c029677",
    "highest_trust_under_separation": "6c44940e3fa29151c642f254d7470c93cb6aff22c5a5119f1768a54b5d338759",
    "three_groups": "b7e42507bb06bacd7dc744f1a02ae0451cac43b444f23cfd117951393aec4681",
    "three_sites": "5e87418b1193da7b313440283b65bc8ec57aab3e7d5f27527396509092c975a2",
    "redirect_and_whitelist": "240d4d08e20e482e0cfb143189b329f418bc393275c92e6d3ca694c7e6a2db46",
    "reject_all": "5e429e3959ff6b1b0ec065c124bd686b3b8476551835002e734c80be9a404abd",
    "no_feasible_start": "3838fac1d760cd595634979c5b0524617da406928190316bb1a32e18211177b5",
    "budget_zero": "928e35c224c56b53d7b1df860efc290bdabbac255189adcdff6cf1cc6115151f",
    "start_tie": "c0121950202a1ef291f38f95c0011891ea0e85b3fe17bd8672344ed0a406e09a",
    "not_comrade": "c710e93a2bed9b5fd397dd59d8e511ba78286e688a1189e94bc4e0f2c9266330",
    "trust_reset": "3c05ac17716304b6274026370c35b4bdef0ea82a75763299754949ac1f9a4efc",
    "late_join_unjudged": "164f193b11d1a62a70692492d03a4e18b9144739bb06675df5cea89e52660d91",
    "mixed_max_rand": "5cc1f483efecd36568958e41076e41d90b9aaedb6117a1a354d71215f90e8a3b",
    "stale_answer": "0868a806f1afdfc35178d36035975756b72844a43eb7234537b79a44b9719bfa",
    "rejoin": "74a82f76b367e969b3d67b20bc4a1f232f696c9343d3a36e60a201b07b09000d",
    "long_campaign": "d23c90c065bfe62c65532aa950dd8e75dd56dd239621afd67d009484e13151e6",
    "roster_expiry": "346b0f1039db7c47b6bec3b2f9d4c8e633bcebd6eb5185905739f9058b2d6615",
    "expired_reput": "b349e9d9a508b7f932cc0db0b20c8cfd2d8b2b054bcaa7232556ab3935311f8d",
    "interleaved_spam": "df084f8827c40024bf89570f6f075e58c5fcef0360759e824df7e0c4110a48da",
    "second_roster": "aa2c2740149611c73f33ae534fb1ce498c227f606cfb893adf8dce7ea22835ac",
}
