"""Campaign coordination: pick start times, register, decide to launch.

A campaign is one target URL plus one absolute start minute. Clients that
saw the same spam find each other by reading start times under the URL's
hash, registering their public key under hash("start|url"), and re-checking
the roster when the start arrives. Two gates guard the launch: strictly
more than min_comrades registered keys, and enough accumulated trust among
them. Both checks use only self-measured state, so a fabricated roster can
inflate the count but never the trust sum.

Start times outside [now + min_wait, now + max_wait] are never joined, which
is the whole defense against far-future parking of campaigns; the weekly
usage windows keep starts inside minutes this machine is likely online.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from enum import Enum
from random import Random
from typing import NamedTuple

from optoutswarm import crypto, trust
from optoutswarm.crypto import ClientIdentity
from optoutswarm.dht import (
    DhtKey, SimulatedDht, campaign_table_key, comrades_table_key, inbox_key,
)
from optoutswarm.evaluator import CanonicalUrl
from optoutswarm.trust import TrustConfig, TrustDb

log = logging.getLogger(__name__)

MINUTES_PER_WEEK = 7 * 24 * 60


class NoFeasibleStart(Exception):
    """Usage windows and the wait interval share no minute."""


class JoinPolicy(Enum):
    JOIN_ALL = "join_all"
    HIGHEST_TRUST = "highest_trust"


class CampaignState(Enum):
    PENDING = "pending"
    LAUNCHED = "launched"
    SKIPPED = "skipped"


@dataclass(frozen=True)
class CoordinatorConfig:
    min_wait: int = 60  # minutes; a start sooner than this is suspicious
    max_wait: int = MINUTES_PER_WEEK  # and later than this is parked forever
    min_comrades: int = 5  # launch needs strictly more than this
    min_accumulated_trust: int = 0  # floor; the trust model ramps above it
    usage_windows: tuple[tuple[int, int], ...] = ((0, MINUTES_PER_WEEK),)
    join_policy: JoinPolicy = JoinPolicy.JOIN_ALL
    poll_interval: int = 10  # minutes between inbox checks
    max_challenges_answered: int = 10  # per sliding 60-minute window
    launch_grace: int = 5  # minutes after start during which launching is allowed

    def __post_init__(self) -> None:
        if not 0 < self.min_wait < self.max_wait:
            raise ValueError("need 0 < min_wait < max_wait")
        # a registration lives one DHT TTL (a week and a day); a later start finds it gone
        if self.max_wait > MINUTES_PER_WEEK:
            raise ValueError(f"max_wait must be at most {MINUTES_PER_WEEK}")
        if self.min_comrades < 1:
            raise ValueError("min_comrades must be at least 1")
        if self.min_accumulated_trust < 0:
            raise ValueError("min_accumulated_trust must be non-negative")
        if self.poll_interval < 1:
            raise ValueError("poll_interval must be at least 1")
        if self.max_challenges_answered < 0:
            raise ValueError("max_challenges_answered must be non-negative")
        if self.launch_grace < 1:
            raise ValueError("launch_grace must be at least 1")
        windows = sorted(self.usage_windows)
        for (a1, b1), (a2, _) in zip(windows, windows[1:]):
            if a2 < b1:
                raise ValueError("usage windows must not overlap")
        for a, b in windows:
            if not (0 <= a < b <= MINUTES_PER_WEEK):
                raise ValueError("usage windows must lie within one week")


class _Campaign(NamedTuple):
    url: CanonicalUrl
    start: int  # absolute sim-minute


class CampaignStart(_Campaign):
    """A record, so that hashing and equality run in C: it keys the campaign
    tables, the agenda and the adversaries' put minutes."""

    __slots__ = ()

    def __new__(cls, url: CanonicalUrl, start: int) -> CampaignStart:
        if start <= 0:
            raise ValueError("start must be positive")
        return super().__new__(cls, url, start)

    @property
    def order(self) -> tuple[int, str]:
        """Sort key: earliest start first, ties by URL, on every client alike."""
        return (self.start, self.url)


@dataclass
class CampaignRecord:
    roster: DhtKey  # the DHT key of its roster, derived once at the join
    state: CampaignState = CampaignState.PENDING
    baseline: list[float] = field(default_factory=list)  # my latency probes before the start
    during: list[float] = field(default_factory=list)  # and from the start on
    roster_read: int = 0  # where my reads of its roster got to, for `SimulatedDht.appended`


@dataclass
class LocalCampaignDb:
    """The campaigns I joined, in `CampaignStart.order`; `join` alone adds them."""

    entries: dict[CampaignStart, CampaignRecord] = field(default_factory=dict)

    def join(self, campaign: CampaignStart) -> CampaignRecord:
        """Add a campaign in order; re-joining keeps its record as it is."""
        if campaign not in self.entries:
            self.entries[campaign] = CampaignRecord(_roster_key(campaign))
            self.entries = dict(sorted(self.entries.items(), key=lambda e: e[0].order))
        return self.entries[campaign]

    def rosters(self) -> list[DhtKey]:
        """The roster keys of my campaigns, in the table's order."""
        return [record.roster for record in self.entries.values()]


@dataclass(frozen=True)
class LaunchDecision:
    campaign: CampaignStart
    launched: bool
    comrade_count: int
    trust_sum: int
    trust_threshold: int


@dataclass(frozen=True)
class HandleResult:
    joined: tuple[CampaignStart, ...]
    proposed: CampaignStart | None
    rejected_unsuitable: int  # table entries that failed the suitability check


def is_suitable(start: int, now: int, cfg: CoordinatorConfig) -> bool:
    """A start we could personally commit to: near enough, far enough, online."""
    return any(a <= start < b for a, b in _feasible_segments(now, cfg))


def _feasible_segments(now: int, cfg: CoordinatorConfig) -> list[tuple[int, int]]:
    """Intersect [now+min_wait, now+max_wait] with the weekly usage windows.

    Returned as half-open absolute-minute segments [a, b).
    """
    lo = now + cfg.min_wait
    hi = now + cfg.max_wait + 1
    segments = []
    for week in range(lo // MINUTES_PER_WEEK, (hi - 1) // MINUTES_PER_WEEK + 1):
        base = week * MINUTES_PER_WEEK
        for a, b in sorted(cfg.usage_windows):
            seg_lo = max(lo, base + a)
            seg_hi = min(hi, base + b)
            if seg_lo < seg_hi:
                segments.append((seg_lo, seg_hi))
    return segments


def propose_start(now: int, cfg: CoordinatorConfig, rng: Random) -> int:
    """Uniform draw over every feasible minute."""
    segments = _feasible_segments(now, cfg)
    total = sum(b - a for a, b in segments)
    if total == 0:
        raise NoFeasibleStart("no minute satisfies both wait bounds and usage windows")
    index = rng.randrange(total)
    for a, b in segments:
        if index < b - a:
            return a + index
        index -= b - a
    raise AssertionError("index out of segment range")


def announce_start(dht: SimulatedDht, url: CanonicalUrl, start: int, now: int) -> None:
    """Publish a start minute for a URL's campaign table, as ASCII digits."""
    dht.put(campaign_table_key(url), str(start).encode("ascii"), now)


def read_starts(dht: SimulatedDht, url: CanonicalUrl, now: int) -> list[int]:
    """Every announced start minute for a URL; malformed entries are skipped."""
    starts = []
    for value in dht.get(campaign_table_key(url), now):
        try:
            starts.append(int(value.decode("ascii")))
        except (UnicodeDecodeError, ValueError):
            log.debug("ignoring malformed campaign table entry %r", value)
    return starts


def _roster_key(campaign: CampaignStart) -> DhtKey:
    return comrades_table_key(campaign.start, campaign.url)


def register(dht: SimulatedDht, campaign: CampaignStart, public_key: bytes, now: int) -> None:
    """Put a public key on a campaign's roster; re-registering is a no-op."""
    dht.put(_roster_key(campaign), public_key, now)


def register_many(
    dht: SimulatedDht, campaign: CampaignStart, public_keys: list[bytes], now: int
) -> None:
    """`register` each key in turn, deriving the roster's key once."""
    key = _roster_key(campaign)
    for public_key in public_keys:
        dht.put(key, public_key, now)


def read_comrades(
    dht: SimulatedDht, campaign: CampaignStart, now: int
) -> list[bytes]:
    """Distinct registered public keys for one campaign, in registration order."""
    return dht.get(_roster_key(campaign), now)


def is_comrade(dht: SimulatedDht, db: LocalCampaignDb, now: int, public_key: bytes) -> bool:
    """Whether a key is registered for any campaign I joined."""
    return dht.contains_any(db.rosters(), public_key, now)


def challenge_comrades(
    now: int, dht: SimulatedDht, identity: ClientIdentity, db: LocalCampaignDb,
    trust_db: TrustDb, cfg: TrustConfig, rng: Random,
) -> list[bytes]:
    """Challenge every due comrade but myself and the verified; returns whom.

    A comrade is live on the roster of a campaign I joined. Only peers that
    may have fallen due are looked at: those stored afresh on one of my
    rosters since I last read it, and those my trust database hands back.
    The challenges go out by the earliest campaign each peer is live on, then
    by key, so a replay draws the same challenges.
    """
    peers = trust_db.take_maybe_due(now)
    rosters = []  # in the table's order, so a roster's place ranks as its campaign's order
    for record in db.entries.values():
        rosters.append(record.roster)
        fresh, record.roster_read = dht.appended(record.roster, record.roster_read)
        peers.update(fresh)
    peers.discard(identity.public_key)
    if not peers:
        return []
    due = []
    for peer in peers:
        if peer in trust_db.verified or not trust_db.due(peer, now):
            continue
        for first, key in enumerate(rosters):
            if dht.contains(key, peer, now):
                due.append((first, peer))
                break
    challenged = [peer for _order, peer in sorted(due)]
    if challenged:
        trust.initiate_verification(identity, challenged, dht, trust_db, cfg, rng, now)
    return challenged


def handle_url(
    url: CanonicalUrl,
    now: int,
    cfg: CoordinatorConfig,
    dht: SimulatedDht,
    identity: ClientIdentity,
    db: LocalCampaignDb,
    trust_db: TrustDb,
    rng: Random,
) -> HandleResult:
    """React to one freshly reported target URL.

    Reads the announced start times, keeps the suitable ones, proposes a
    fresh start when none fit (at most one of my proposals outstanding per
    URL), then registers for every joined start. Registration is idempotent:
    the roster is a set and the local database keeps one record per
    campaign.
    """
    announced = read_starts(dht, url, now)
    suitable = sorted({s for s in announced if is_suitable(s, now, cfg)})
    rejected = len(set(announced)) - len(suitable)
    proposed: CampaignStart | None = None

    if not suitable:
        outstanding = any(
            c.url == url and c.start >= now and r.state is CampaignState.PENDING
            for c, r in db.entries.items()
        )
        if outstanding:
            return HandleResult(joined=(), proposed=None, rejected_unsuitable=rejected)
        start = propose_start(now, cfg, rng)
        announce_start(dht, url, start, now)
        proposed = CampaignStart(url=url, start=start)
        suitable = [start]

    if cfg.join_policy is JoinPolicy.HIGHEST_TRUST and len(suitable) > 1:
        def roster_trust(start: int) -> int:
            comrades = read_comrades(dht, CampaignStart(url=url, start=start), now)
            return trust.accumulated_trust(trust_db, comrades)

        # earliest start wins ties so every replica picks the same one
        suitable = [max(suitable, key=lambda s: (roster_trust(s), -s))]

    joined = []
    for start in suitable:
        campaign = CampaignStart(url=url, start=start)
        register(dht, campaign, identity.public_key, now)
        db.join(campaign)
        joined.append(campaign)
    return HandleResult(
        joined=tuple(joined), proposed=proposed, rejected_unsuitable=rejected
    )


def tick(
    now: int,
    dht: SimulatedDht,
    trust_db: TrustDb,
    cfg: CoordinatorConfig,
    db: LocalCampaignDb,
) -> list[LaunchDecision]:
    """Decide every pending campaign whose start has arrived.

    Launch requires strictly more than min_comrades registered keys AND an
    accumulated trust sum at or above the effective threshold. A client that
    only notices a start after the grace window skips it rather than join a
    campaign mid-flight.
    """
    decisions = []
    threshold = max(cfg.min_accumulated_trust, trust_db.current_min_accumulated_trust)
    for campaign, record in db.entries.items():
        if record.state is not CampaignState.PENDING or now < campaign.start:
            continue
        if now >= campaign.start + cfg.launch_grace:
            comrades, trust_sum, launched = [], 0, False
        else:
            comrades = read_comrades(dht, campaign, now)
            trust_sum = trust.accumulated_trust(trust_db, comrades)
            launched = len(comrades) > cfg.min_comrades and trust_sum >= threshold
        record.state = CampaignState.LAUNCHED if launched else CampaignState.SKIPPED
        decisions.append(
            LaunchDecision(
                campaign=campaign,
                launched=launched,
                comrade_count=len(comrades),
                trust_sum=trust_sum,
                trust_threshold=threshold,
            )
        )
    return decisions


def poll_inbox(
    now: int,
    dht: SimulatedDht,
    identity: ClientIdentity,
) -> list[crypto.Challenge | trust.ChallengeSolution]:
    """Drain my inbox: records as they are, wire bytes opened and decoded.

    Undecodable or misaddressed values are deleted too; leaving them would
    let junk accumulate forever under my key. Only a key whose mail is kept
    may poll, so no reader can lose mail silently.
    """
    readers = dht.inbox_readers
    if readers is not None and identity.public_key not in readers:
        raise ValueError(f"{identity!r} polls an inbox whose mail is not kept")
    payloads = []
    for message in dht.drain(inbox_key(identity.public_key), now):
        if isinstance(message, bytes):
            try:
                message = trust.decode_payload(crypto.open_sealed(identity, message))
            except (ValueError, crypto.NotAddressee, crypto.DecryptionFailure,
                    trust.MalformedPayload) as exc:
                log.debug("dropping inbox value: %s", exc)
                continue
        payloads.append(message)
    return payloads
