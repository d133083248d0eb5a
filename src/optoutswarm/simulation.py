"""Minute-stepped deterministic simulation of a client fleet plus adversaries.

Within each simulated minute, phases run in a fixed order:

  1. adversary actions
  2. spam delivery (evaluation and campaign handling)
  3. inbox polls (challenge/response traffic, new verifications)
  4. coordinator ticks (launch decisions)
  5. opt-out bursts from launched campaigns
  6. latency probes and campaign judgments
  7. per-site settlement

Polls walk the clients in index order, each in the minutes its
`poll_interval` divides. A poll hands its drained inbox to `trust.handle_mail`
in one call and joins each handshake line from fixed fragments. A challenge
carries its issuer's answer, which a solver takes, and hashes its target only
when read. Settlement runs every
minute, each minute settled once and then let go. A join books the
campaign's launch decision at its start and, on a target site, the probe
slots not yet past and the judgment, on one agenda ((minute, phase) ->
client -> campaigns) for their exact minutes. A phase acts on exactly what
is booked for its minute, so an action booked twice runs once. A launch on a
target site is counted for the same minute's burst phase, which writes the
campaign's opt-out load into every minute it runs, up to the run's end, in
one call. The contract is the phase order, then client index order, then the
order of the client's campaign table.

Every stochastic choice comes from an entity-private stream seeded as
"{seed}:{kind}:{index}", so adding an adversary never perturbs honest
clients' draws and a scenario replays byte-identically: run() twice with
the same scenario and the metrics serialization compares equal.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from operator import attrgetter
from random import Random
from typing import Any, Callable

from optoutswarm import coordinator, crypto, evaluator, trust, website
from optoutswarm.coordinator import (
    CampaignRecord,
    CampaignStart,
    CampaignState,
    CoordinatorConfig,
    LocalCampaignDb,
)
from optoutswarm.crypto import ClientIdentity
from optoutswarm.dht import SimulatedDht
from optoutswarm.evaluator import CanonicalUrl
from optoutswarm.scenario import AdversarySpec, Scenario, SpamInjection
from optoutswarm.trust import PROBE_WINDOW, AnswerBudget, TrustConfig, TrustDb
from optoutswarm.website import TargetSite, TrafficLedger


class NoSuchCampaign(Exception):
    """No client in the run ever reported that URL."""


@dataclass
class SimClient:
    index: int
    identity: ClientIdentity
    cfg: CoordinatorConfig
    tcfg: TrustConfig
    rng: Random
    campaign_db: LocalCampaignDb = field(default_factory=LocalCampaignDb)
    trust_db: TrustDb = field(default_factory=TrustDb)
    budget: AnswerBudget = field(init=False)
    urls_reported: set[CanonicalUrl] = field(default_factory=set)
    solve_attempts: int = 0
    challenges_answered: int = 0
    challenges_sent: int = 0
    hash_evaluations: int = 0
    joins_rejected_unsuitable: int = 0

    def __post_init__(self) -> None:
        self.trust_db.current_min_accumulated_trust = self.cfg.min_accumulated_trust
        self.budget = AnswerBudget(cap=self.cfg.max_challenges_answered)

    def issuer_is_comrade(self, dht: SimulatedDht, issuer_pk: bytes, now: int) -> bool:
        return coordinator.is_comrade(dht, self.campaign_db, now, issuer_pk)


Sink = Callable[[str], object]

# json.dumps with keyword arguments builds a new encoder on every call; a
# non-finite number, which JSON cannot hold, raises instead of being written
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _handshake_fragments(client: int, now: int) -> tuple[str, ...]:
    """One poll's handshake lines, nearly all of a large fleet's stream, in
    fixed parts: a line is a head, a key's hex or a drop's reason, a tail and,
    for an answer, its work and "}\n"; `_ENCODER`'s bytes, fields in key order."""
    head, tail = '{"client":' + str(client) + ",", '","t":' + str(now) + ',"type":"'
    return (
        head + '"peer":"', tail + 'challenge_sent"}\n',
        head + '"reason":"', tail + 'challenge_dropped"}\n',
        head + '"issuer":"', tail + 'challenge_answered","work":',
        head + '"ok":true,"peer":"', head + '"ok":false,"peer":"', tail + 'verification"}\n',
    )


class _Hexes(dict):
    """Each public key's hex, formatted on its first use."""

    def __missing__(self, key: bytes) -> str:
        text = self[key] = key.hex()
        return text


def ndjson_line(record: dict[str, Any]) -> str:
    """One line of the metrics stream: compact JSON, sorted keys, newline."""
    return _ENCODER.encode(record) + "\n"


def write_summary(summary: dict[str, Any], write: Sink) -> None:
    """Write `ndjson_line(summary)` a client at a time: at a thousand clients
    the whole line, with every trust record's key, would be the run's peak."""
    # keys sort, so only "adversaries" and "campaigns" come first: neither holds a "clients"
    head, _, tail = _ENCODER.encode({**summary, "clients": []}).partition('"clients":[')
    write(head + '"clients":[')
    separator = ""
    for client in summary["clients"]:
        write(separator + _ENCODER.encode(client))
        separator = ","
    write(tail + "\n")


@dataclass
class MetricsReport:
    """The summary of a run, plus its NDJSON lines when no sink took them."""

    events: list[str]
    summary: dict[str, Any]

    def to_ndjson(self) -> str:
        parts = list(self.events)
        write_summary(self.summary, parts.append)
        return "".join(parts)


def convergence(report: MetricsReport, url: str) -> float:
    """Share of a URL's reporters registered on its most popular start."""
    ratios = report.summary["convergence"]
    if url not in ratios:
        raise NoSuchCampaign(f"no client reported {url!r}")
    return ratios[url]


def median(values: list[float]) -> float:
    """`statistics.median`, whose module a run need not load."""
    ordered, half = sorted(values), len(values) // 2
    return ordered[half] if len(values) % 2 else (ordered[half - 1] + ordered[half]) / 2


class _Adversary:
    """Base: full DHT read/write access, own identity and RNG, no honest keys."""

    reads_inbox = False  # whether `step` polls its inbox; the DHT keeps mail only for readers

    def __init__(self, spec: AdversarySpec, index: int, sim: "Simulation") -> None:
        self.spec = spec
        self.index = index
        self.rng = Random(f"{sim.scenario.seed}:adversary:{index}")
        self.identity = crypto.generate_identity(self.rng)
        self.counters: Counter[str] = Counter()
        self.put_at: dict[CampaignStart, int] = {}  # the minute of a roster's last put
        self.settled: list[CampaignStart] | None = None  # a view whose every put lasts

    def step(self, sim: "Simulation", now: int) -> None:
        raise NotImplementedError

    def _register_everywhere(
        self, sim: "Simulation", now: int, pk: bytes
    ) -> list[CampaignStart]:
        """Every announced campaign, with `pk` kept on its roster as a put each
        minute would keep it. A put that stays live to the run's last minute
        is not repeated: no reader could tell a refresh in place from it.
        So once every put on a view lasts, the view is settled, and taking
        the same view again returns at once."""
        campaigns = sim.announced_campaigns(now)
        if campaigns is self.settled:
            return campaigns
        # a put from this minute on stays live to the run's last minute
        lasting = sim.scenario.duration - 1 - sim.dht.ttl_minutes
        settled = True
        for campaign in campaigns:
            if campaign not in self.put_at or self.put_at[campaign] < lasting:
                self.put_at[campaign] = now
                coordinator.register(sim.dht, campaign, pk, now)
                settled = now >= lasting
        if settled:
            self.settled = campaigns
        return campaigns


class _StartInjector(_Adversary):
    """Every `injection_period` minutes, announces a start `lead` minutes out
    for every known URL.

    time_portal parks campaigns in the far future (`offset_minutes`) so they
    can never fire; separation floods near-term starts (`lead_minutes`) to
    splinter the fleet below the launch threshold.
    """

    LEAD_PARAM = {"time_portal": "offset_minutes", "separation": "lead_minutes"}

    def __init__(self, spec: AdversarySpec, index: int, sim: "Simulation") -> None:
        super().__init__(spec, index, sim)
        self.period = spec.params["injection_period"]
        self.lead = spec.params[self.LEAD_PARAM[spec.strategy]]

    def step(self, sim: "Simulation", now: int) -> None:
        if now % self.period != 0:
            return
        for url in sim.known_urls():
            campaign = CampaignStart(url=url, start=now + self.lead)
            coordinator.announce_start(sim.dht, url, campaign.start, now)
            sim.adversarial_starts.add(campaign)
            self.counters["injected"] += 1
        sim.announced = None


class _ChallengeFloodAdversary(_Adversary):
    """Registers as a comrade, then buries one victim in puzzles."""

    def step(self, sim: "Simulation", now: int) -> None:
        self._register_everywhere(sim, now, self.identity.public_key)
        params = self.spec.params
        if now != params["at_minute"]:
            return
        victim_pk = sim.clients[params["victim"]].identity.public_key
        for _ in range(params["count"]):
            trust.post_challenge(
                sim.dht, self.identity, victim_pk, params["max_rand"], self.rng, now
            )
            self.counters["challenges_sent"] += 1


class _MitmForwarderAdversary(_Adversary):
    """Relays challenges it receives, hoping to pocket a verification.

    With rewrite_issuer the relayed copy claims the forwarder as issuer; the
    hash still binds the original key, so victims are charged a full scan and
    refuse the copy by its key. Without rewriting, victims solve fine but their
    responses route to the key inside the challenge, which is never the forwarder's.

    Each minute it reads every announced start and keeps its key on each
    roster, then drains its inbox. It reads those rosters for victims only
    in a minute whose inbox holds a challenge, once, on the first one.
    """

    reads_inbox = True

    def step(self, sim: "Simulation", now: int) -> None:
        key = self.identity.public_key
        campaigns = self._register_everywhere(sim, now, key)
        victims = None
        for message in coordinator.poll_inbox(now, sim.dht, self.identity):
            if not isinstance(message, crypto.Challenge):
                continue
            if victims is None:  # no roster is an inbox, so the drain moves no victim
                victims = {
                    pk for c in campaigns for pk in coordinator.read_comrades(sim.dht, c, now)
                } - {key}
            forwarded = message
            if self.spec.params["rewrite_issuer"]:  # a copy of a copy copies its original
                original = message[2] if type(message) is crypto.RelayedChallenge else message
                forwarded = crypto.RelayedChallenge(key, message.rand1, original)
            for victim_pk in sorted(victims - {message.issuer_public_key}):
                trust.post(sim.dht, victim_pk, forwarded, now)
                self.counters["forwarded"] += 1


class _SybilFloodAdversary(_Adversary):
    """Registers a crowd of fresh, never-verified identities everywhere.

    Each minute it takes the shared view of the announced starts. It puts
    all its keys on a start's roster on first sight and again once they
    expire there, in one pass per roster: nobody else puts or removes them,
    so it never needs to read the roster.
    """

    def __init__(self, spec: AdversarySpec, index: int, sim: "Simulation") -> None:
        super().__init__(spec, index, sim)
        count = spec.params["identity_count"]
        self.sybil_keys = [
            crypto.generate_identity(self.rng).public_key for _ in range(count)
        ]

    def step(self, sim: "Simulation", now: int) -> None:
        for campaign in sim.announced_campaigns(now):
            if campaign in self.put_at and now <= self.put_at[campaign] + sim.dht.ttl_minutes:
                continue
            self.put_at[campaign] = now
            coordinator.register_many(sim.dht, campaign, self.sybil_keys, now)
            self.counters["registered"] += len(self.sybil_keys)


_ADVERSARY_CLASSES = {
    "time_portal": _StartInjector,
    "separation": _StartInjector,
    "challenge_flood": _ChallengeFloodAdversary,
    "mitm_forwarder": _MitmForwarderAdversary,
    "sybil_flood": _SybilFloodAdversary,
}


class Simulation:
    """One run of a scenario.

    Every event goes to `sink` as its NDJSON line, when it is emitted. The
    default sink appends to `self.events`, so the report of `run()` holds the
    whole stream; with any other sink, no layer keeps the lines and `events`
    stays empty.
    """

    def __init__(self, scenario: Scenario, sink: Sink | None = None) -> None:
        self.scenario = scenario
        self.dht = SimulatedDht()
        self.sites: dict[CanonicalUrl, tuple[TargetSite, TrafficLedger]] = {
            site.url: (site, TrafficLedger())
            for site in sorted(scenario.target_sites, key=attrgetter("url"))
        }
        self.clients: list[SimClient] = []
        index = 0
        for group in scenario.clients:
            for _ in range(group.count):
                rng = Random(f"{scenario.seed}:client:{index}")
                self.clients.append(
                    SimClient(
                        index=index,
                        identity=crypto.generate_identity(rng),
                        cfg=group.config,
                        tcfg=group.trust,
                        rng=rng,
                    )
                )
                index += 1
        self.by_key = {c.identity.public_key: c for c in self.clients}
        self.adversaries = [
            _ADVERSARY_CLASSES[spec.strategy](spec, i, self)
            for i, spec in enumerate(scenario.adversaries)
        ]
        self.dht.inbox_readers = frozenset(self.by_key).union(
            a.identity.public_key for a in self.adversaries if a.reads_inbox
        )
        self.events: list[str] = []
        self.emit = self.events.append if sink is None else sink
        self._hex = _Hexes()
        self.adversarial_starts: set[CampaignStart] = set()
        self.honest_joins_on_adversarial = 0
        self._spam_at: dict[int, list[SpamInjection]] = {}
        for injection in scenario.spam_injections:
            self._spam_at.setdefault(injection.minute, []).append(injection)
        # (minute, phase) -> client index -> campaign -> action
        self._agenda: dict[tuple[int, str], dict[int, dict[CampaignStart, str]]] = {}
        self._launched: Counter[CampaignStart] = Counter()  # this minute's launches, by clients
        self.announced: list[CampaignStart] | None = None  # the shared view, until dropped

    def joined_campaigns(self) -> set[CampaignStart]:
        """Every campaign some honest client joined: the union of their tables."""
        return set().union(*(client.campaign_db.entries for client in self.clients))

    def known_urls(self) -> list[CanonicalUrl]:
        """URLs an adversary can see: advertised sites plus announced ones."""
        return sorted(self.sites.keys() | {c.url for c in self.joined_campaigns()})

    def announced_campaigns(self, now: int) -> list[CampaignStart]:
        """Every announced start of every known URL: what adversaries act on.

        Read on first use and shared by the adversaries, across minutes,
        until something a fresh read would see can have changed. Three
        events drop it: an injector's announcement; a spam minute that
        handles an injection, the one place honest clients announce and
        join (so the known URLs change only there); and, once `now` passes
        the DHT's TTL, each minute's adversary phase, since a start can
        expire only then.
        """
        view = self.announced
        if view is None:
            view = self.announced = [
                CampaignStart(url, start)
                for url in self.known_urls()
                for start in coordinator.read_starts(self.dht, url, now)
            ]
        return view

    def _book(
        self, minute: int, phase: str, index: int, campaign: CampaignStart, action: str = ""
    ) -> None:
        self._agenda.setdefault((minute, phase), {}).setdefault(index, {})[campaign] = action

    def _booked(self, now: int, phase: str) -> list[tuple[int, dict[CampaignStart, str]]]:
        """Take each client's actions booked for this minute and phase, by index."""
        return sorted(self._agenda.pop((now, phase), {}).items())

    def _book_join(self, client: SimClient, campaign: CampaignStart, now: int) -> None:
        """Book a joined campaign's launch decision and, on a target site, its
        probes and judgment. Probe k of a window falls `spacing * k` minutes
        after it opens: the baseline window PROBE_WINDOW minutes before the
        start, the during one at it. Baseline probes due before the join are
        missed, so such a campaign is left unjudged."""
        self._book(campaign.start, "tick", client.index, campaign)
        if campaign.url not in self.sites:
            return
        spacing = PROBE_WINDOW // client.tcfg.probe_count
        for k in range(client.tcfg.probe_count):
            during = campaign.start + spacing * k
            if during - PROBE_WINDOW >= now:
                self._book(during - PROBE_WINDOW, "probe", client.index, campaign, "baseline")
            self._book(during, "probe", client.index, campaign, "during")
        self._book(campaign.start + PROBE_WINDOW, "probe", client.index, campaign, "judge")

    # ------------------------------------------------------------------
    # phases

    def _phase_adversaries(self, now: int) -> None:
        if now > self.dht.ttl_minutes:  # a start announced at minute 0 may expire from now on
            self.announced = None
        for adversary in self.adversaries:
            adversary.step(self, now)

    def _phase_spam(self, now: int) -> None:
        if self.scenario.confirm_policy == "reject_all":
            return  # the user confirms no URL, so no client reports one
        for injection in self._spam_at.get(now, ()):
            self.announced = None  # clients announce and join below
            urls = evaluator.evaluate(
                injection.mail, self.scenario.redirect_map, self.scenario.whitelist
            )
            for index in sorted(self.scenario.injection_targets(injection)):
                client = self.clients[index]
                for url in urls:
                    client.urls_reported.add(url)
                    try:
                        result = coordinator.handle_url(
                            url,
                            now,
                            client.cfg,
                            self.dht,
                            client.identity,
                            client.campaign_db,
                            client.trust_db,
                            client.rng,
                        )
                    except coordinator.NoFeasibleStart:
                        self.emit(ndjson_line(
                            {"t": now, "type": "no_feasible_start", "client": index, "url": url}
                        ))
                        continue
                    client.joins_rejected_unsuitable += result.rejected_unsuitable
                    if result.proposed is not None:  # joined below
                        self.emit(ndjson_line({
                            "t": now,
                            "type": "campaign_proposed",
                            "client": index,
                            "url": url,
                            "start": result.proposed.start,
                        }))
                    for campaign in result.joined:
                        self._book_join(client, campaign, now)
                        if campaign in self.adversarial_starts:
                            self.honest_joins_on_adversarial += 1
                        self.emit(ndjson_line({
                            "t": now,
                            "type": "campaign_joined",
                            "client": index,
                            "url": campaign.url,
                            "start": campaign.start,
                            "rejected_unsuitable": result.rejected_unsuitable,
                        }))

    def _phase_polls(self, now: int) -> None:
        dht, hexes, emit = self.dht, self._hex, self.emit
        for client in self.clients:
            if now % client.cfg.poll_interval:
                continue
            me, db, fragments = client.identity, client.campaign_db, None
            mail = coordinator.poll_inbox(now, dht, me)
            if mail:
                fragments = _handshake_fragments(client.index, now)
                (_sent, _sent_end, dropped, dropped_end, answered, answered_end,
                 verified, refused, verification_end) = fragments
                for kind, key, value in trust.handle_mail(
                    me, mail, dht, client.budget, client.trust_db, db.rosters(),
                    client.tcfg.max_rand, now,
                ):
                    if kind == "verification":
                        emit((verified if value else refused) + hexes[key] + verification_end)
                        continue
                    if value:  # budget was spent on a solve
                        client.solve_attempts += 1
                        client.hash_evaluations += value
                    if kind == "answered":
                        client.challenges_answered += 1
                        emit(answered + hexes[key] + answered_end + str(value) + "}\n")
                    else:
                        emit(dropped + kind + dropped_end)
            challenged = coordinator.challenge_comrades(
                now, dht, me, db, client.trust_db, client.tcfg, client.rng
            )
            if challenged:
                sent, sent_end = (fragments or _handshake_fragments(client.index, now))[:2]
                client.challenges_sent += len(challenged)
                for peer_pk in challenged:
                    emit(sent + hexes[peer_pk] + sent_end)

    def _phase_ticks(self, now: int) -> None:
        for index, _campaigns in self._booked(now, "tick"):
            client = self.clients[index]
            decisions = coordinator.tick(
                now, self.dht, client.trust_db, client.cfg, client.campaign_db
            )
            for decision in decisions:
                campaign = decision.campaign
                if decision.launched and campaign.url in self.sites:
                    self._launched[campaign] += 1
                self.emit(ndjson_line({
                    "t": now,
                    "type": "launch_decision",
                    "client": client.index,
                    "url": campaign.url,
                    "start": campaign.start,
                    "launched": decision.launched,
                    "comrades": decision.comrade_count,
                    "trust_sum": decision.trust_sum,
                    "threshold": decision.trust_threshold,
                }))

    def _phase_bursts(self, now: int) -> None:
        # Each campaign launched this minute writes its load into every minute
        # it runs at once. Requests are integers, so they add up the same in
        # any order, and no minute's load is read before that minute's probes.
        for campaign, clients in self._launched.items():
            end = min(campaign.start + self.scenario.campaign_duration, self.scenario.duration)
            website.send_opt_out_burst(
                self.sites[campaign.url][1], clients * self.scenario.opt_out_rate, range(now, end)
            )
        self._launched.clear()

    def _phase_probes(self, now: int) -> None:
        # a campaign's probe slots and judgment fall on distinct minutes
        for index, booked in self._booked(now, "probe"):
            client = self.clients[index]
            for campaign, record in client.campaign_db.entries.items():
                action = booked.get(campaign)
                if action == "judge":
                    self._judge(client, campaign, record, now)
                elif action is not None:
                    site, ledger = self.sites[campaign.url]
                    probes = record.baseline if action == "baseline" else record.during
                    probes.append(website.probe(site, now, ledger))

    def _judge(
        self, client: SimClient, campaign: CampaignStart, record: CampaignRecord, now: int
    ) -> None:
        if min(len(record.baseline), len(record.during)) < client.tcfg.probe_count:
            self.emit(ndjson_line({
                "t": now,
                "type": "outcome_unjudged",
                "client": client.index,
                "url": campaign.url,
                "start": campaign.start,
                "reason": "insufficient_probes",
            }))
            return
        comrades = tuple(
            pk
            for pk in coordinator.read_comrades(self.dht, campaign, now)
            if pk != client.identity.public_key
        )
        outcome = trust.CampaignOutcome(
            baseline_latency=median(record.baseline),
            during_latency=median(record.during),
            comrades=comrades,
        )
        verdict = trust.judge_outcome(outcome, client.tcfg.alpha)
        reset = trust.apply_outcome(client.trust_db, verdict, outcome, client.tcfg)
        self.emit(ndjson_line({
            "t": now,
            "type": "outcome_judged",
            "client": client.index,
            "url": campaign.url,
            "start": campaign.start,
            "verdict": verdict.value,
            "baseline_ms": outcome.baseline_latency,
            "during_ms": outcome.during_latency,
        }))
        if reset:
            self.emit(ndjson_line({"t": now, "type": "trust_reset", "client": client.index}))

    def _phase_settle(self, now: int) -> None:
        for url, (site, ledger) in self.sites.items():
            record = website.settle_minute(site, now, ledger)
            if (
                record.opt_out_requests
                or record.probe_requests
                or record.visitors_lost
            ):
                self.emit(ndjson_line({
                    "t": now,
                    "type": "site_minute",
                    "url": url,
                    "opt_out_requests": record.opt_out_requests,
                    "probe_requests": record.probe_requests,
                    "response_ms": record.response_ms,
                    "visitors_lost": record.visitors_lost,
                }))

    # ------------------------------------------------------------------

    def run(self) -> MetricsReport:
        for now in range(self.scenario.duration):
            self._phase_adversaries(now)
            self._phase_spam(now)
            self._phase_polls(now)
            self._phase_ticks(now)
            self._phase_bursts(now)
            self._phase_probes(now)
            self._phase_settle(now)
        return MetricsReport(events=self.events, summary=self._summary())

    def _summary(self) -> dict[str, Any]:
        end = self.scenario.duration
        joined = self.joined_campaigns()
        launched_by = Counter(
            campaign for client in self.clients
            for campaign, record in client.campaign_db.entries.items()
            if record.state is CampaignState.LAUNCHED
        )
        listed = sorted(joined | self.adversarial_starts)
        rosters = {c: set(coordinator.read_comrades(self.dht, c, end - 1)) for c in listed}
        campaigns = []
        for campaign, roster in rosters.items():
            campaigns.append(
                {
                    "url": campaign.url,
                    "start": campaign.start,
                    "comrade_count": len(roster),
                    "honest_comrades": len(roster & self.by_key.keys()),
                    "launched_by": launched_by[campaign],
                    "adversarial": campaign in self.adversarial_starts,
                }
            )
        sites = {}
        for url, (_site, ledger) in self.sites.items():
            sites[url] = {
                "opt_out_requests": ledger.total_opt_out_requests,
                "probe_requests": ledger.total_probe_requests,
                "visitors_served": ledger.total_visitors_served,
                "visitors_lost": ledger.total_visitors_lost,
                "traffic_bytes": ledger.traffic_bytes,
                "traffic_cost": ledger.traffic_cost,
                "lost_revenue": ledger.lost_revenue,
            }
        clients = []
        for client in self.clients:
            clients.append(
                {
                    "index": client.index,
                    "trust_records": {
                        self._hex[pk]: value
                        for pk, value in sorted(client.trust_db.records.items())
                    },
                    "verified_peers": len(client.trust_db.verified),
                    "challenges_sent": client.challenges_sent,
                    "solve_attempts": client.solve_attempts,
                    "challenges_answered": client.challenges_answered,
                    "hash_evaluations": client.hash_evaluations,
                    "trust_resets": client.trust_db.reset_count,
                    "joins_rejected_unsuitable": client.joins_rejected_unsuitable,
                    "min_accumulated_trust": client.trust_db.current_min_accumulated_trust,
                }
            )
        # convergence: share of a URL's reporters on its fullest joined roster
        reporters: dict[CanonicalUrl, set[bytes]] = {}
        for client in self.clients:
            for url in client.urls_reported:
                reporters.setdefault(url, set()).add(client.identity.public_key)
        ratios = {}
        for url, keys in sorted(reporters.items()):
            best = max((len(keys & rosters[c]) for c in joined if c.url == url), default=0)
            ratios[url] = best / len(keys)
        return {
            "type": "summary",
            "campaigns": campaigns,
            "sites": sites,
            "clients": clients,
            "convergence": ratios,
            "adversaries": [
                {
                    "index": adversary.index,
                    "strategy": adversary.spec.strategy,
                    "counters": dict(sorted(adversary.counters.items())),
                }
                for adversary in self.adversaries
            ],
            "totals": {
                "campaigns_launched": len(launched_by),
                "launch_decisions_true": sum(launched_by.values()),
                "honest_joins_on_adversarial": self.honest_joins_on_adversarial,
                "hash_evaluations": sum(c.hash_evaluations for c in self.clients),
                "solve_attempts": sum(c.solve_attempts for c in self.clients),
            },
        }


def run(scenario: Scenario, sink: Sink | None = None) -> MetricsReport:
    """Run one scenario to completion. Deterministic in the scenario alone.

    Without a sink the report holds every event's line; with one, each line
    goes to the sink as it is emitted and the report's `events` is empty.
    """
    return Simulation(scenario, sink).run()
