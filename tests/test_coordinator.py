"""Start-time selection, campaign joining, and the launch gates."""

import inspect
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoutswarm import coordinator, crypto, trust
from optoutswarm.coordinator import (
    MINUTES_PER_WEEK,
    CampaignStart,
    CampaignState,
    CoordinatorConfig,
    JoinPolicy,
    LocalCampaignDb,
    NoFeasibleStart,
    announce_start,
    challenge_comrades,
    handle_url,
    is_comrade,
    is_suitable,
    poll_inbox,
    propose_start,
    read_comrades,
    read_starts,
    register,
    tick,
)
from optoutswarm.dht import SimulatedDht, campaign_table_key, comrades_table_key, inbox_key
from optoutswarm.evaluator import canonicalize
from optoutswarm.trust import TrustConfig, TrustDb

URL = canonicalize("http://pills.example/buy")


def identity(tag: str) -> crypto.ClientIdentity:
    return crypto.generate_identity(Random(tag))


class TestSuitability:
    CFG = CoordinatorConfig(min_wait=60, max_wait=240)

    def test_wait_interval_is_inclusive_on_both_ends(self):
        assert not is_suitable(159, now=100, cfg=self.CFG)
        assert is_suitable(160, now=100, cfg=self.CFG)
        assert is_suitable(340, now=100, cfg=self.CFG)
        assert not is_suitable(341, now=100, cfg=self.CFG)

    def test_past_and_immediate_starts_rejected(self):
        assert not is_suitable(50, now=100, cfg=self.CFG)
        assert not is_suitable(100, now=100, cfg=self.CFG)

    def test_far_future_start_rejected(self):
        # a start parked weeks out never becomes joinable from here
        assert not is_suitable(100 + 5 * MINUTES_PER_WEEK, now=100, cfg=self.CFG)

    def test_usage_window_gates_week_minute(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=240, usage_windows=((200, 300),))
        assert is_suitable(250, now=100, cfg=cfg)
        assert not is_suitable(310, now=100, cfg=cfg)  # in wait range, outside window
        # windows are half-open: start of window in, end out
        assert is_suitable(200, now=100, cfg=cfg)
        assert not is_suitable(300, now=100, cfg=cfg)


@st.composite
def suitability_cases(draw):
    """A config, a `now` and a start, often on a window or wait-bound edge ±1."""
    cuts = sorted(draw(st.sets(st.integers(0, MINUTES_PER_WEEK), max_size=6)))
    windows = tuple(zip(cuts[::2], cuts[1::2])) or ((0, MINUTES_PER_WEEK),)
    min_wait = draw(st.integers(1, MINUTES_PER_WEEK - 1))
    max_wait = draw(st.integers(min_wait + 1, MINUTES_PER_WEEK))
    cfg = CoordinatorConfig(min_wait=min_wait, max_wait=max_wait, usage_windows=windows)
    now = draw(st.integers(0, 4 * MINUTES_PER_WEEK))
    weeks = range(now // MINUTES_PER_WEEK, (now + max_wait) // MINUTES_PER_WEEK + 2)
    edges = [now + min_wait, now + max_wait] + [
        week * MINUTES_PER_WEEK + x for week in weeks for window in windows for x in window
    ]
    edge = draw(st.sampled_from(edges))
    start = draw(st.one_of(
        st.integers(edge - 1, edge + 1), st.integers(now - 10, now + max_wait + 10)
    ))
    return cfg, now, start


def reference_suitable(start: int, now: int, cfg: CoordinatorConfig) -> bool:
    """The rule as the paper states it: inside the wait interval and a usage window."""
    week_minute = start % MINUTES_PER_WEEK
    return now + cfg.min_wait <= start <= now + cfg.max_wait and any(
        a <= week_minute < b for a, b in cfg.usage_windows
    )


class TestFeasibilityRule:
    @settings(max_examples=300, deadline=None)
    @given(suitability_cases())
    def test_is_suitable_matches_the_reference_rule(self, case):
        cfg, now, start = case
        assert is_suitable(start, now, cfg) == reference_suitable(start, now, cfg)

    @settings(max_examples=100, deadline=None)
    @given(suitability_cases(), st.integers(0, 2**32))
    def test_every_proposed_start_is_suitable(self, case, seed):
        cfg, now, _start = case
        rng = Random(seed)
        try:
            draws = [propose_start(now, cfg, rng) for _ in range(5)]
        except NoFeasibleStart:
            lo, hi = now + cfg.min_wait, now + cfg.max_wait
            assert not any(reference_suitable(s, now, cfg) for s in range(lo, hi + 1))
            return
        assert all(is_suitable(s, now, cfg) for s in draws)
        assert all(reference_suitable(s, now, cfg) for s in draws)


class TestProposeStart:
    def test_draw_stays_in_wait_interval(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=240)
        rng = Random(5)
        for _ in range(200):
            start = propose_start(100, cfg, rng)
            assert 160 <= start <= 340
            assert is_suitable(start, 100, cfg)

    def test_single_feasible_minute_is_forced(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=240, usage_windows=((200, 201),))
        assert propose_start(100, cfg, Random(0)) == 200
        assert propose_start(100, cfg, Random(1)) == 200

    def test_no_feasible_minute_raises(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=240, usage_windows=((500, 600),))
        with pytest.raises(NoFeasibleStart):
            propose_start(100, cfg, Random(0))

    def test_deterministic_under_seed(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=10080)
        assert propose_start(0, cfg, Random(42)) == propose_start(0, cfg, Random(42))

    def test_windows_respected_across_week_boundary(self):
        cfg = CoordinatorConfig(
            min_wait=60, max_wait=MINUTES_PER_WEEK, usage_windows=((0, 120),)
        )
        rng = Random(3)
        now = MINUTES_PER_WEEK - 90
        for _ in range(100):
            start = propose_start(now, cfg, rng)
            assert start % MINUTES_PER_WEEK < 120
            assert now + 60 <= start <= now + MINUTES_PER_WEEK


class TestHandleUrl:
    def setup_method(self):
        self.dht = SimulatedDht()
        self.cfg = CoordinatorConfig(min_wait=60, max_wait=240)
        self.me = identity("handler")
        self.db = LocalCampaignDb()
        self.trust_db = TrustDb()

    def handle(self, now=100, rng_seed=7, cfg=None):
        return handle_url(
            URL, now, cfg or self.cfg, self.dht, self.me,
            self.db, self.trust_db, Random(rng_seed),
        )

    def test_empty_table_proposes_and_joins(self):
        got = self.handle()
        assert got.proposed is not None
        assert got.joined == (got.proposed,)
        table = self.dht.get(campaign_table_key(URL), 100)
        assert table == [str(got.proposed.start).encode()]
        roster = read_comrades(self.dht, got.proposed, 100)
        assert roster == [self.me.public_key]
        assert self.db.entries[got.proposed].state is CampaignState.PENDING

    def test_existing_suitable_start_joined_not_duplicated(self):
        self.dht.put(campaign_table_key(URL), b"200", 100)
        got = self.handle()
        assert got.proposed is None
        assert [c.start for c in got.joined] == [200]
        assert len(self.dht.get(campaign_table_key(URL), 100)) == 1

    def test_malformed_table_entries_are_skipped(self):
        key = campaign_table_key(URL)
        self.dht.put(key, b"soon", 100)
        self.dht.put(key, b"\xff", 100)
        announce_start(self.dht, URL, 200, 100)
        assert read_starts(self.dht, URL, 100) == [200]
        got = self.handle()
        assert got.proposed is None
        assert [c.start for c in got.joined] == [200]
        assert got.rejected_unsuitable == 0

    def test_unsuitable_starts_counted_and_replaced(self):
        self.dht.put(campaign_table_key(URL), b"90", 100)  # too soon
        self.dht.put(campaign_table_key(URL), b"999", 100)  # too late
        got = self.handle()
        assert got.rejected_unsuitable == 2
        assert got.proposed is not None

    def test_join_all_joins_every_suitable_start(self):
        self.dht.put(campaign_table_key(URL), b"200", 100)
        self.dht.put(campaign_table_key(URL), b"220", 100)
        got = self.handle()
        assert sorted(c.start for c in got.joined) == [200, 220]

    def test_highest_trust_joins_single_best_roster(self):
        cfg = CoordinatorConfig(
            min_wait=60, max_wait=240, join_policy=JoinPolicy.HIGHEST_TRUST
        )
        trusted = identity("trusted-peer")
        self.trust_db.records[trusted.public_key] = 5
        self.dht.put(campaign_table_key(URL), b"200", 100)
        self.dht.put(campaign_table_key(URL), b"220", 100)
        self.dht.put(comrades_table_key(200, URL), identity("x").public_key, 100)
        self.dht.put(comrades_table_key(200, URL), identity("y").public_key, 100)
        self.dht.put(comrades_table_key(220, URL), trusted.public_key, 100)
        got = self.handle(cfg=cfg)
        assert [c.start for c in got.joined] == [220]

    def test_highest_trust_tie_breaks_to_earliest(self):
        cfg = CoordinatorConfig(
            min_wait=60, max_wait=240, join_policy=JoinPolicy.HIGHEST_TRUST
        )
        self.dht.put(campaign_table_key(URL), b"220", 100)
        self.dht.put(campaign_table_key(URL), b"200", 100)
        got = self.handle(cfg=cfg)
        assert [c.start for c in got.joined] == [200]

    def test_rejoining_is_idempotent(self):
        self.dht.put(campaign_table_key(URL), b"200", 100)
        first = self.handle()
        record = self.db.entries[first.joined[0]]
        second = self.handle(now=110)
        assert second.joined == first.joined
        assert len(self.db.entries) == 1
        assert self.db.entries[first.joined[0]] is record
        assert read_comrades(self.dht, first.joined[0], 110) == [self.me.public_key]

    def test_one_outstanding_proposal_per_url(self):
        first = self.handle(now=100)
        assert first.proposed is not None
        start = first.proposed.start
        # close enough to the start that it fails min_wait, but my proposal
        # is still pending: do not flood the table with a second start
        second = self.handle(now=start - 30, rng_seed=8)
        assert second.proposed is None
        assert second.joined == ()
        assert second.rejected_unsuitable == 1
        table = self.dht.get(campaign_table_key(URL), start - 30)
        assert len(table) == 1


class TestTick:
    def setup_method(self):
        self.dht = SimulatedDht()
        self.cfg = CoordinatorConfig(min_wait=60, max_wait=240, min_comrades=3)
        self.trust_db = TrustDb()
        self.db = LocalCampaignDb()
        self.campaign = CampaignStart(url=URL, start=200)
        self.db.join(self.campaign)

    def register(self, count: int):
        for i in range(count):
            self.dht.put(
                comrades_table_key(200, URL),
                identity(f"peer-{i}").public_key,
                100,
            )

    def test_before_start_no_decision(self):
        assert tick(199, self.dht, self.trust_db, self.cfg, self.db) == []
        assert self.db.entries[self.campaign].state is CampaignState.PENDING

    def test_comrade_count_must_strictly_exceed_minimum(self):
        self.register(3)  # exactly min_comrades: not enough
        (decision,) = tick(200, self.dht, self.trust_db, self.cfg, self.db)
        assert not decision.launched
        assert decision.comrade_count == 3
        assert self.db.entries[self.campaign].state is CampaignState.SKIPPED

    def test_one_over_minimum_launches(self):
        self.register(4)
        (decision,) = tick(200, self.dht, self.trust_db, self.cfg, self.db)
        assert decision.launched
        assert decision.comrade_count == 4
        assert self.db.entries[self.campaign].state is CampaignState.LAUNCHED

    def test_trust_gate_blocks_untrusted_roster(self):
        self.register(4)
        self.trust_db.current_min_accumulated_trust = 2
        (decision,) = tick(200, self.dht, self.trust_db, self.cfg, self.db)
        assert not decision.launched
        assert decision.trust_sum == 0
        assert decision.trust_threshold == 2

    def test_trust_gate_passes_at_threshold(self):
        self.register(4)
        self.trust_db.current_min_accumulated_trust = 2
        roster = read_comrades(self.dht, self.campaign, 200)
        self.trust_db.records[roster[0]] = 2
        (decision,) = tick(200, self.dht, self.trust_db, self.cfg, self.db)
        assert decision.launched
        assert decision.trust_sum == 2

    def test_threshold_is_max_of_floor_and_ramp(self):
        cfg = CoordinatorConfig(min_wait=60, max_wait=240, min_comrades=3,
                                min_accumulated_trust=4)
        self.register(4)
        self.trust_db.current_min_accumulated_trust = 1
        (decision,) = tick(200, self.dht, self.trust_db, cfg, self.db)
        assert decision.trust_threshold == 4

    def test_grace_window_allows_late_launch(self):
        self.register(4)
        (decision,) = tick(204, self.dht, self.trust_db, self.cfg, self.db)
        assert decision.launched

    def test_past_grace_is_skipped_unconditionally(self, monkeypatch):
        self.register(100)
        self.trust_db.records = dict.fromkeys(read_comrades(self.dht, self.campaign, 200), 1)

        def no_roster_read(*_args):
            raise AssertionError("a campaign past its grace reads no roster")

        monkeypatch.setattr(coordinator, "read_comrades", no_roster_read)
        (decision,) = tick(205, self.dht, self.trust_db, self.cfg, self.db)
        assert not decision.launched
        assert decision.comrade_count == 0
        assert decision.trust_sum == 0
        assert self.db.entries[self.campaign].state is CampaignState.SKIPPED

    def test_decided_campaigns_never_revisited(self):
        self.register(4)
        assert len(tick(200, self.dht, self.trust_db, self.cfg, self.db)) == 1
        assert tick(201, self.dht, self.trust_db, self.cfg, self.db) == []

    def test_multiple_campaigns_decided_in_start_order(self):
        self.db.join(CampaignStart(url=URL, start=300))
        self.db.join(CampaignStart(url=URL, start=250))  # joined out of start order
        self.register(4)
        decisions = tick(300, self.dht, self.trust_db, self.cfg, self.db)
        assert [d.campaign.start for d in decisions] == [200, 250, 300]


class TestLocalCampaignDb:
    OTHER = canonicalize("http://ads.example/buy")  # sorts before URL

    def test_joins_in_any_order_iterate_in_campaign_order(self):
        campaigns = [
            CampaignStart(url=url, start=start)
            for start in (50, 200, 300)
            for url in (URL, self.OTHER)
        ]
        expected = sorted(campaigns, key=lambda c: (c.start, c.url))
        assert expected[:2] == [CampaignStart(self.OTHER, 50), CampaignStart(URL, 50)]
        for seed in range(5):
            db = LocalCampaignDb()
            for campaign in Random(seed).sample(campaigns, len(campaigns)):
                db.join(campaign)
            assert list(db.entries) == expected

    def test_rejoining_keeps_the_record(self):
        db = LocalCampaignDb()
        campaign = CampaignStart(url=URL, start=200)
        record = db.join(campaign)
        record.state = CampaignState.LAUNCHED
        record.baseline.append(100.0)
        record.during.append(250.0)
        db.join(CampaignStart(url=URL, start=100))
        assert db.join(campaign) is record
        assert (record.state, record.baseline, record.during) == (
            CampaignState.LAUNCHED, [100.0], [250.0]
        )
        assert len(db.entries) == 2


class TestPollInbox:
    def test_drains_and_decodes_everything(self):
        dht = SimulatedDht()
        me = identity("inbox-owner")
        issuer = identity("inbox-issuer")
        challenge, _ = crypto.generate_challenge(issuer, 30, Random(2))
        solution = crypto.ChallengeSolution(issuer.public_key, 17)
        key = inbox_key(me.public_key)
        trust.post(dht, me.public_key, challenge, 0)
        dht.put(key, crypto.seal(me.public_key, bytes(solution)), 0)
        assert len(dht.get(key, 5)) == 2
        got = poll_inbox(5, dht, me)
        assert got == [challenge, solution]
        assert dht.get(key, 5) == []

    def test_records_sealed_in_process_skip_the_codec(self, monkeypatch):
        dht = SimulatedDht()
        me = identity("inbox-owner-4")
        issuer = identity("issuer-4")
        challenge, _ = crypto.generate_challenge(issuer, 30, Random(2))
        solution = crypto.ChallengeSolution(issuer.public_key, 17)
        trust.post(dht, me.public_key, challenge, 0)
        trust.post(dht, me.public_key, solution, 0)
        monkeypatch.setattr(trust, "decode_payload", None)  # any call fails
        monkeypatch.setattr(crypto, "open_sealed", None)
        got = poll_inbox(5, dht, me)
        assert got == [challenge, solution]
        assert got[0] is challenge and got[1] is solution

    def test_junk_is_deleted_not_fatal(self):
        dht = SimulatedDht()
        me = identity("inbox-owner-2")
        other = identity("other")
        key = inbox_key(me.public_key)
        dht.put(key, b"not even a sealed message but long enough" + bytes(52), 0)
        # sealed to someone else entirely
        dht.put(key, crypto.seal(other.public_key, b"\x02" + bytes(40)), 0)
        assert poll_inbox(0, dht, me) == []
        assert dht.get(key, 0) == []

    def test_an_identity_whose_mail_is_not_kept_may_not_poll(self):
        reader, other = identity("inbox-reader"), identity("inbox-nonreader")
        dht = SimulatedDht(inbox_readers=frozenset({reader.public_key}))
        assert poll_inbox(0, dht, reader) == []
        with pytest.raises(ValueError, match="not kept"):
            poll_inbox(0, dht, other)

    def test_decoded_challenge_equals_the_sent_one(self):
        dht = SimulatedDht()
        me = identity("inbox-owner-3")
        issuer = identity("issuer-3")
        challenge, _ = crypto.generate_challenge(issuer, 30, Random(2))
        dht.put(
            inbox_key(me.public_key),
            crypto.seal(me.public_key, trust.encode_challenge_payload(challenge)),
            0,
        )
        # the payload carries every field of the record but its answer
        assert poll_inbox(40, dht, me) == [challenge._replace(answer=None)]


class TestRoster:
    def setup_method(self):
        self.dht = SimulatedDht()
        self.db = LocalCampaignDb()
        self.joined = CampaignStart(url=URL, start=500)
        self.other = CampaignStart(url=URL, start=600)
        self.db.join(self.joined)

    def test_read_comrades_keeps_registration_order(self):
        keys = [identity(f"reg-{i}").public_key for i in range(5)]
        for key in keys:
            register(self.dht, self.joined, key, 0)
        register(self.dht, self.joined, keys[0], 1)  # re-registering keeps the place
        assert read_comrades(self.dht, self.joined, 1) == keys

    def test_is_comrade_on_any_joined_roster(self):
        peer, stranger = identity("peer").public_key, identity("stranger").public_key
        register(self.dht, self.other, peer, 0)
        assert not is_comrade(self.dht, self.db, 0, peer)  # a roster I did not join
        self.db.join(self.other)
        assert is_comrade(self.dht, self.db, 0, peer)
        assert not is_comrade(self.dht, self.db, 0, stranger)
        assert not is_comrade(self.dht, self.db, self.dht.ttl_minutes + 1, peer)  # expired


class TestChallengeComrades:
    def setup_method(self):
        self.dht = SimulatedDht()
        self.me = identity("initiator")
        self.peer = identity("peer").public_key
        self.campaign = CampaignStart(url=URL, start=500)
        self.db = LocalCampaignDb()
        self.db.join(self.campaign)
        register(self.dht, self.campaign, self.me.public_key, 0)
        register(self.dht, self.campaign, self.peer, 0)
        self.trust_db = TrustDb()
        self.cfg = TrustConfig(max_rand=50, rechallenge_timeout=120)
        self.rng = Random(1)

    def challenge(self, now: int) -> list[bytes]:
        return challenge_comrades(
            now, self.dht, self.me, self.db, self.trust_db, self.cfg, self.rng
        )

    def inbox(self, public_key: bytes, now: int) -> list[bytes]:
        return self.dht.get(inbox_key(public_key), now)

    def test_one_outstanding_challenge_per_peer(self):
        assert self.challenge(0) == [self.peer]
        first = self.trust_db.pending[self.peer]
        assert self.challenge(10) == []
        assert self.trust_db.pending[self.peer] is first
        assert len(self.inbox(self.peer, 10)) == 1

    def test_rechallenge_after_timeout(self):
        assert self.challenge(0) == [self.peer]
        assert self.challenge(119) == []
        assert self.challenge(120) == [self.peer]
        assert len(self.inbox(self.peer, 120)) == 2

    def test_due_turns_at_the_timeout(self):
        assert self.trust_db.due(self.peer, 0) is True  # nothing pending
        assert self.challenge(5) == [self.peer]
        assert self.trust_db.due(self.peer, 5 + 120 - 1) is False
        assert self.challenge(5 + 120 - 1) == []
        assert self.trust_db.due(self.peer, 5 + 120) is True
        assert self.challenge(5 + 120) == [self.peer]

    def test_wrong_answer_makes_the_peer_due_at_once(self):
        assert self.challenge(0) == [self.peer]
        wrong = self.trust_db.pending[self.peer].expected_rand2 + 1
        assert not trust.handle_response(self.trust_db, trust.ChallengeSolution(self.peer, wrong))
        assert self.challenge(10) == [self.peer]

    def test_reset_makes_verified_peers_due(self):
        self.trust_db.verified.add(self.peer)
        assert self.challenge(0) == []
        self.trust_db.reset()
        assert self.challenge(10) == [self.peer]

    def test_key_on_no_joined_roster_is_never_challenged(self):
        stranger = identity("stranger").public_key
        register(self.dht, CampaignStart(url=URL, start=600), stranger, 0)  # not joined
        assert self.challenge(0) == [self.peer]
        assert self.inbox(stranger, 0) == []
        assert stranger not in self.trust_db.pending

    def test_self_and_verified_peers_are_skipped(self):
        self.trust_db.verified.add(self.peer)
        assert self.challenge(0) == []
        assert self.inbox(self.me.public_key, 0) == []
        assert self.inbox(self.peer, 0) == []

    def test_campaigns_earliest_first_and_rosters_in_key_order(self):
        later = CampaignStart(url=URL, start=900)
        earlier = CampaignStart(url=URL, start=400)
        rosters = {}
        for campaign in (later, earlier):  # joined out of start order
            self.db.join(campaign)
            keys = [identity(f"{campaign.start}-{i}").public_key for i in range(4)]
            for key in sorted(keys, reverse=True):  # registered out of key order
                register(self.dht, campaign, key, 0)
            rosters[campaign] = sorted(keys)
        register(self.dht, later, self.peer, 0)  # on two rosters, challenged once
        assert self.challenge(0) == rosters[earlier] + [self.peer] + rosters[later]


def _full_scan(now, dht, identity, db, trust_db, cfg, rng):
    """The challenge rule as a full scan: every roster of every campaign I
    joined, earliest first, each in key order."""
    challenged = []
    for campaign in db.entries:
        for peer in sorted(read_comrades(dht, campaign, now)):
            if peer == identity.public_key or peer in trust_db.verified:
                continue
            if not trust_db.due(peer, now):
                continue
            trust.initiate_verification(identity, [peer], dht, trust_db, cfg, rng, now)
            challenged.append(peer)
    return challenged


ME = identity("initiator")
PEERS = [ME.public_key] + [bytes([i]) * 32 for i in range(1, 7)]
CAMPAIGNS = [CampaignStart(url=URL, start=s) for s in (300, 200, 250)]
CFG = TrustConfig(max_rand=50, rechallenge_timeout=30)
STEPS = st.one_of(
    st.tuples(st.just("register"), st.sampled_from(PEERS), st.sampled_from(CAMPAIGNS)),
    st.tuples(st.just("join"), st.sampled_from(CAMPAIGNS)),
    st.tuples(st.just("answer"), st.sampled_from(PEERS), st.booleans()),
    st.tuples(st.just("reset")),
    st.tuples(st.just("wait"), st.integers(0, 40)),
    st.tuples(st.just("poll")),
    st.tuples(st.just("poll")),
)


class _Client:
    """One side of the comparison: its own DHT, tables and random stream."""

    def __init__(self, ttl: int) -> None:
        self.dht = SimulatedDht(ttl_minutes=ttl)
        self.db = LocalCampaignDb()
        self.trust_db = TrustDb()
        self.rng = Random(7)

    def step(self, step: tuple, now: int) -> None:
        kind = step[0]
        if kind == "register":
            register(self.dht, step[2], step[1], now)
        elif kind == "join":
            self.db.join(step[1])
        elif kind == "answer":
            pending = self.trust_db.pending.get(step[1])
            rand2 = (pending.expected_rand2 if pending else 0) + (0 if step[2] else 1)
            trust.handle_response(self.trust_db, trust.ChallengeSolution(step[1], rand2))
        elif kind == "reset":
            self.trust_db.reset()


@settings(max_examples=300, deadline=None)
@given(st.lists(STEPS, min_size=20, max_size=150), st.integers(20, 200))
def test_incremental_challenges_equal_the_full_scan(steps, ttl):
    # registrations (live and expired re-puts), joins, right and wrong
    # answers, resets and TTL expiry, in any order: challenge_comrades must
    # pick the peers a full scan picks, in the same order
    watched, scanned = _Client(ttl), _Client(ttl)
    now = 0
    for step in steps:
        if step[0] == "wait":
            now += step[1]
        elif step[0] == "poll":
            got = challenge_comrades(
                now, watched.dht, ME, watched.db, watched.trust_db, CFG, watched.rng
            )
            want = _full_scan(now, scanned.dht, ME, scanned.db, scanned.trust_db, CFG, scanned.rng)
            assert got == want
        else:
            watched.step(step, now)
            scanned.step(step, now)
    assert watched.trust_db.pending == scanned.trust_db.pending


class TestCampaignStart:
    def test_keyword_and_positional_construction_agree(self):
        campaign = CampaignStart(url=URL, start=300)
        assert campaign == CampaignStart(URL, 300) == CampaignStart(URL, start=300)
        assert (campaign.url, campaign.start) == (URL, 300)

    @pytest.mark.parametrize("start", [0, -1, -MINUTES_PER_WEEK])
    def test_a_start_not_after_minute_zero_is_rejected(self, start):
        with pytest.raises(ValueError, match="start must be positive"):
            CampaignStart(url=URL, start=start)
        with pytest.raises(ValueError, match="start must be positive"):
            CampaignStart(URL, start)

    def test_equal_fields_make_equal_values_with_one_dict_slot(self):
        first, second = CampaignStart(URL, 300), CampaignStart(url=URL, start=300)
        assert first is not second
        assert first == second and hash(first) == hash(second)
        table = {first: "first"}
        table[second] = "second"
        assert table == {first: "second"} and next(iter(table)) is first
        assert first != CampaignStart(URL, 301)
        assert first != CampaignStart("http://other.example/buy", 300)
        assert len({first, second, CampaignStart(URL, 301)}) == 2

    def test_repr_and_order(self):
        campaign = CampaignStart(url=URL, start=300)
        assert repr(campaign) == "CampaignStart(url='http://pills.example/buy', start=300)"
        assert campaign.order == (300, URL)

    def test_is_read_only(self):
        campaign = CampaignStart(url=URL, start=300)
        with pytest.raises(AttributeError):
            campaign.start = 1
        assert not hasattr(campaign, "__dict__")


class TestConfigValidation:
    def test_min_wait_must_be_below_max_wait(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(min_wait=240, max_wait=240)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(usage_windows=((0, 100), (50, 200)))

    def test_window_outside_week_rejected(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(usage_windows=((0, MINUTES_PER_WEEK + 1),))

    def test_max_wait_beyond_one_week_rejected(self):
        # the roster of a later start would expire from the DHT before it arrived
        assert CoordinatorConfig(max_wait=MINUTES_PER_WEEK).max_wait == MINUTES_PER_WEEK
        with pytest.raises(ValueError, match="max_wait must be at most 10080"):
            CoordinatorConfig(max_wait=MINUTES_PER_WEEK + 1)

    @pytest.mark.parametrize("bad", [
        {"poll_interval": 0},
        {"poll_interval": -5},
        {"max_challenges_answered": -1},
        {"launch_grace": 0},
        {"launch_grace": -1},
    ])
    def test_timings_out_of_range_rejected(self, bad):
        (field,) = bad
        with pytest.raises(ValueError, match=field):
            CoordinatorConfig(**bad)

    def test_timing_floors_accepted(self):
        cfg = CoordinatorConfig(poll_interval=1, max_challenges_answered=0, launch_grace=1)
        assert (cfg.poll_interval, cfg.max_challenges_answered, cfg.launch_grace) == (1, 0, 1)

    def test_campaign_start_must_be_positive(self):
        with pytest.raises(ValueError):
            CampaignStart(url=URL, start=0)


def test_join_is_the_one_writer_of_the_campaign_table():
    # the table stays in campaign order only while nothing else adds to it or sorts it
    src = Path(__file__).resolve().parent.parent / "src" / "optoutswarm"
    join = inspect.getsource(LocalCampaignDb.join)
    for needle in (".entries[", "entries =", "entries.setdefault(", "entries.update(", ".order)"):
        found = {p.name: p.read_text("utf-8").count(needle) for p in src.glob("*.py")}
        elsewhere = {name: n for name, n in found.items() if name != "coordinator.py" and n}
        assert elsewhere == {}, needle
        assert found["coordinator.py"] == join.count(needle), needle
    assert join.count(".order)") == 1


def test_only_coordinator_and_dht_name_the_roster_key():
    # every other module reaches a roster through coordinator, so the key
    # format and the who-to-challenge rule keep one owner
    src = Path(__file__).resolve().parent.parent / "src" / "optoutswarm"
    naming = [p.name for p in src.glob("*.py") if "comrades_table_key" in p.read_text("utf-8")]
    assert sorted(naming) == ["coordinator.py", "dht.py"]
